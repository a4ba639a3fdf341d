package pmem

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// Typed views over pool objects. STREAM-PMem allocates its three arrays
// as pmemobj objects and then operates on them as plain double arrays
// (Listing 2); Float64s provides the same zero-copy access in Go.
//
// The unsafe reinterpretation is confined to this file. It is sound
// because Alloc returns 64-byte-aligned offsets inside a heap-allocated
// []byte whose base is at least 8-byte aligned, the view slice is never
// reallocated while the pool is open, and the element count is bounds-
// checked against the object size first.

// Float64s returns the object's bytes as a []float64 of n elements.
// The slice aliases pool memory: stores are volatile until Persist.
func (p *Pool) Float64s(oid OID, n int) ([]float64, error) {
	if n <= 0 {
		return nil, &PoolError{Op: "float64s", Layout: p.layout, Why: "non-positive length"}
	}
	b, err := p.View(oid, float64Bytes(n))
	if err != nil {
		return nil, err
	}
	if uintptr(unsafe.Pointer(&b[0]))%8 != 0 {
		// Cannot happen with 64-byte aligned allocations; checked for
		// safety so the unsafe cast below is provably aligned.
		return nil, &PoolError{Op: "float64s", Layout: p.layout, Why: "object not 8-byte aligned"}
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n), nil
}

// AllocFloat64s allocates a persistent array of n doubles, returning
// the OID and the mapped slice — the POBJ_ALLOC call of Listing 2.
func (p *Pool) AllocFloat64s(n int) (OID, []float64, error) {
	if n <= 0 {
		return OID{}, nil, &PoolError{Op: "alloc-float64s", Layout: p.layout, Why: "non-positive length"}
	}
	oid, err := p.Alloc(float64Bytes(n))
	if err != nil {
		return OID{}, nil, err
	}
	s, err := p.Float64s(oid, n)
	if err != nil {
		return OID{}, nil, err
	}
	return oid, s, nil
}

// PersistFloat64s flushes elements [lo, hi) of a float64 object.
func (p *Pool) PersistFloat64s(oid OID, lo, hi int) error {
	if lo < 0 || hi < lo {
		return &PoolError{Op: "persist-float64s", Layout: p.layout, Why: "bad range"}
	}
	if lo == hi {
		return nil
	}
	return p.persistAt(oid, float64Bytes(lo), float64Bytes(hi-lo))
}

// float64Bytes is the byte length of n >= 0 float64s, clamped so that
// it cannot wrap; a clamped length exceeds any pool, so View, Alloc
// and Persist reject it.
func float64Bytes(n int) uint64 { return uint64(min(n, math.MaxInt64/8)) * 8 }

// SetUint64 transactionally stores v into the 8 bytes at oid+off.
// Useful for persistent counters and progress markers.
func (p *Pool) SetUint64(oid OID, off uint64, v uint64) error {
	return p.Update(oid, off, 8, func(b []byte) error {
		binary.LittleEndian.PutUint64(b, v)
		return nil
	})
}

// GetUint64 reads the 8 bytes at oid+off.
func (p *Pool) GetUint64(oid OID, off uint64) (uint64, error) {
	b, err := p.viewAt(oid, off, 8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// SetFloat64 transactionally stores v into the 8 bytes at oid+off.
func (p *Pool) SetFloat64(oid OID, off uint64, v float64) error {
	return p.SetUint64(oid, off, math.Float64bits(v))
}

// GetFloat64 reads a float64 at oid+off.
func (p *Pool) GetFloat64(oid OID, off uint64) (float64, error) {
	u, err := p.GetUint64(oid, off)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(u), nil
}
