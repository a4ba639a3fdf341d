package stream

import (
	"encoding/binary"
	"fmt"

	"cxlpmem/internal/pmem"
)

// STREAM-PMem array allocation (paper Listing 2): the three arrays live
// as pmemobj objects inside a pool; a root object records their OIDs
// and length so a reopened pool finds them again.

// Layout is the pool layout name STREAM-PMem uses.
const Layout = "stream-pmem"

// root object layout: [n u64][aOff u64][bOff u64][cOff u64].
const rootSize = 32

// PmemArrays is the persistent STREAM triple.
type PmemArrays struct {
	pool       *pmem.Pool
	n          int
	oa, ob, oc pmem.OID
	a, b, c    []float64
}

// AllocPmemArrays creates the three persistent arrays in pool — the
// POBJ_ALLOC calls of Listing 2's initiate().
func AllocPmemArrays(pool *pmem.Pool, n int) (*PmemArrays, error) {
	if n <= 0 {
		return nil, fmt.Errorf("stream: pmem array length %d must be positive", n)
	}
	root, err := pool.Root(rootSize)
	if err != nil {
		return nil, err
	}
	if v, err := pool.GetUint64(root, 0); err != nil {
		return nil, err
	} else if v != 0 {
		return nil, fmt.Errorf("stream: pool already holds STREAM arrays (n=%d); use OpenPmemArrays", v)
	}
	p := &PmemArrays{pool: pool, n: n}
	var slices []*[]float64
	var oids []*pmem.OID
	slices = append(slices, &p.a, &p.b, &p.c)
	oids = append(oids, &p.oa, &p.ob, &p.oc)
	for i := range oids {
		oid, s, err := pool.AllocFloat64s(n)
		if err != nil {
			return nil, err
		}
		*oids[i] = oid
		*slices[i] = s
	}
	// Record the layout transactionally in the root: either all three
	// arrays are discoverable after a crash, or none are.
	err = pool.Update(root, 0, rootSize, func(b []byte) error {
		binary.LittleEndian.PutUint64(b[0:], uint64(n))
		binary.LittleEndian.PutUint64(b[8:], p.oa.Off)
		binary.LittleEndian.PutUint64(b[16:], p.ob.Off)
		binary.LittleEndian.PutUint64(b[24:], p.oc.Off)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// OpenPmemArrays rediscovers arrays previously allocated in pool.
func OpenPmemArrays(pool *pmem.Pool) (*PmemArrays, error) {
	root, err := pool.Root(rootSize)
	if err != nil {
		return nil, err
	}
	b, err := pool.View(root, rootSize)
	if err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint64(b[0:]))
	if n <= 0 {
		return nil, fmt.Errorf("stream: pool holds no STREAM arrays")
	}
	p := &PmemArrays{
		pool: pool,
		n:    n,
		oa:   pmem.OID{PoolID: pool.PoolID(), Off: binary.LittleEndian.Uint64(b[8:])},
		ob:   pmem.OID{PoolID: pool.PoolID(), Off: binary.LittleEndian.Uint64(b[16:])},
		oc:   pmem.OID{PoolID: pool.PoolID(), Off: binary.LittleEndian.Uint64(b[24:])},
	}
	if p.a, err = pool.Float64s(p.oa, n); err != nil {
		return nil, err
	}
	if p.b, err = pool.Float64s(p.ob, n); err != nil {
		return nil, err
	}
	if p.c, err = pool.Float64s(p.oc, n); err != nil {
		return nil, err
	}
	return p, nil
}

// A returns the persistent a[] view.
func (p *PmemArrays) A() []float64 { return p.a }

// B returns the persistent b[] view.
func (p *PmemArrays) B() []float64 { return p.b }

// C returns the persistent c[] view.
func (p *PmemArrays) C() []float64 { return p.c }

// Persist flushes all three arrays to the pool's media and fences.
func (p *PmemArrays) Persist() error {
	for _, oid := range []pmem.OID{p.oa, p.ob, p.oc} {
		if err := p.pool.PersistFloat64s(oid, 0, p.n); err != nil {
			return err
		}
	}
	p.pool.Drain()
	return nil
}
