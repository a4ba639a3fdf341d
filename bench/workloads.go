package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"

	"cxlpmem/internal/checkpoint"
	"cxlpmem/internal/pmem"
	"cxlpmem/internal/stream"
)

// flow is one workload's op stream over an assembled machine. The
// measured loop calls prepare then run for every op, on one goroutine.
type flow interface {
	// prepare makes the next op's inputs from the seeded generator and
	// does its untimed staging.
	prepare() error
	// run is the op's timed part. It returns the user bytes the op made
	// durable or mapped.
	run() (int64, error)
	// persists counts pmem persists so far, over every pool the flow has
	// held.
	persists() int64
	// verify closes the pool, reopens it through the runtime and checks
	// every byte the flow has written. It may be called again.
	verify() error
}

// spec describes one workload.
type spec struct {
	name string
	// ways is the interleave width of the CXL node.
	ways  int
	build func(e *env, seed uint64) (flow, error)
}

var specs = []spec{
	{name: "tx-small", ways: 1, build: newTxFlow},
	{name: "stream-pmem", ways: 1, build: newStreamFlow},
	{name: "checkpoint-4way", ways: 4, build: newCkptFlow},
	{name: "restart-4way", ways: 4, build: newRestartFlow},
}

func specFor(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// newRand seeds a workload's generator; the name keeps workloads that
// share a seed on distinct sequences.
func newRand(seed uint64, name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

func fillRand(r *rand.Rand, b []byte) {
	for len(b) >= 8 {
		binary.LittleEndian.PutUint64(b, r.Uint64())
		b = b[8:]
	}
	for i := range b {
		b[i] = byte(r.Uint32())
	}
}

// pooled is a flow's current pool and the persists of pools it replaced.
type pooled struct {
	e            *env
	name, layout string
	pool         *pmem.Pool
	retired      int64
}

func (p *pooled) create(e *env, name, layout string, size int64) error {
	p.e, p.name, p.layout = e, name, layout
	pool, err := e.createPool(name, layout, size)
	p.pool = pool
	return err
}

func (p *pooled) persists() int64 { return p.retired + p.pool.Stats().Persists.Load() }

// reopen closes the pool — a clean shutdown, or dropping a crashed one —
// and opens it again through the runtime, running recovery.
func (p *pooled) reopen() error {
	if err := p.pool.Close(); err != nil {
		return err
	}
	pool, err := p.e.openPool(p.name, p.layout)
	if err != nil {
		return err
	}
	p.retired += p.pool.Stats().Persists.Load()
	p.pool = pool
	return nil
}

// pretouch allocates and frees one object over most of the heap. Alloc
// zeroes and persists it, so every media page the pool will use is
// materialised during set-up, not in the timed loop.
func (p *pooled) pretouch(size int64) error {
	oid, err := p.pool.Alloc(uint64(size - 2<<20))
	if err != nil {
		return err
	}
	return p.pool.Free(oid)
}

// --- tx-small: 64-byte transactional updates, 1-way ---------------------

const (
	txObjects  = 4096
	txObjSize  = 256
	txBytes    = 64
	txPoolSize = 64 << 20
)

type txFlow struct {
	pooled
	rng    *rand.Rand
	oids   []pmem.OID
	shadow []byte // expected content of every object, back to back
	obj    int
	off    int
	data   [txBytes]byte
	store  func([]byte) error
}

func newTxFlow(e *env, seed uint64) (flow, error) {
	f := &txFlow{
		rng:    newRand(seed, "tx-small"),
		oids:   make([]pmem.OID, txObjects),
		shadow: make([]byte, txObjects*txObjSize),
	}
	// A method value made once, so the op itself allocates only what
	// pmem allocates.
	f.store = f.copyData
	if err := f.create(e, "tx.obj", "bench-tx", txPoolSize); err != nil {
		return nil, err
	}
	fillRand(f.rng, f.shadow)
	for i := range f.oids {
		oid, err := f.pool.Alloc(txObjSize)
		if err != nil {
			return nil, err
		}
		v, err := f.pool.View(oid, txObjSize)
		if err != nil {
			return nil, err
		}
		copy(v, f.shadow[i*txObjSize:])
		if err := f.pool.Persist(oid, txObjSize); err != nil {
			return nil, err
		}
		f.oids[i] = oid
	}
	f.pool.Drain()
	return f, nil
}

func (f *txFlow) prepare() error {
	f.obj = f.rng.IntN(txObjects)
	f.off = f.rng.IntN(txObjSize/txBytes) * txBytes
	fillRand(f.rng, f.data[:])
	return nil
}

func (f *txFlow) copyData(v []byte) error {
	copy(v, f.data[:])
	return nil
}

func (f *txFlow) run() (int64, error) {
	if err := f.pool.Update(f.oids[f.obj], uint64(f.off), txBytes, f.store); err != nil {
		return 0, err
	}
	copy(f.shadow[f.obj*txObjSize+f.off:], f.data[:])
	return txBytes, nil
}

func (f *txFlow) verify() error {
	if err := f.reopen(); err != nil {
		return err
	}
	for i, oid := range f.oids {
		v, err := f.pool.View(oid, txObjSize)
		if err != nil {
			return err
		}
		if !bytes.Equal(v, f.shadow[i*txObjSize:(i+1)*txObjSize]) {
			return fmt.Errorf("tx-small: object %d differs from its last committed update after reopen", i)
		}
	}
	return nil
}

// --- stream-pmem: STREAM-PMem iterations, 1-way -------------------------

const (
	// streamN doubles per array: 32 MiB each, 16× L2 but below the
	// host's L3 — the metric is the persist path, not host DRAM.
	streamN        = 4 << 20
	streamBytes    = 3 * streamN * 8
	streamPoolSize = streamBytes + 2<<20
	streamWorkers  = 2
	// streamIters is how many iterations run between initialisations:
	// with STREAM's scalar 3 every value grows 15× per iteration, and
	// float64 overflows after about 262.
	streamIters = 200
)

type streamFlow struct {
	pooled
	rng        *rand.Rand
	arr        *stream.PmemArrays
	a0, b0, c0 float64
	// iters counts iterations since the arrays were last initialised.
	iters int
}

func newStreamFlow(e *env, seed uint64) (flow, error) {
	f := &streamFlow{rng: newRand(seed, "stream-pmem")}
	if err := f.create(e, "stream.obj", stream.Layout, streamPoolSize); err != nil {
		return nil, err
	}
	arr, err := stream.AllocPmemArrays(f.pool, streamN)
	if err != nil {
		return nil, err
	}
	f.arr = arr
	return f, f.initArrays()
}

// initArrays fills the arrays with seeded values and persists them.
func (f *streamFlow) initArrays() error {
	f.a0, f.b0, f.c0 = 1+f.rng.Float64(), 2+f.rng.Float64(), f.rng.Float64()
	a, b, c := f.arr.A(), f.arr.B(), f.arr.C()
	for i := range a {
		a[i], b[i], c[i] = f.a0, f.b0, f.c0
	}
	f.iters = 0
	return f.arr.Persist()
}

func (f *streamFlow) prepare() error {
	if f.iters == streamIters {
		return f.initArrays()
	}
	return nil
}

func (f *streamFlow) run() (int64, error) {
	tr := f.e.tr
	tr.begin(layerKernel)
	for _, op := range stream.Ops {
		if err := stream.Execute(op, f.arr, stream.DefaultScalar, streamWorkers); err != nil {
			tr.end()
			return 0, err
		}
	}
	tr.end()
	tr.begin(layerPersist)
	err := f.arr.Persist()
	tr.end()
	if err != nil {
		return 0, err
	}
	f.iters++
	return streamBytes, nil
}

// verify reopens the pool and checks every element of the three arrays
// against the kernels' recurrence replayed on scalars. The kernels do
// the same float64 operations per element, so the match is exact.
func (f *streamFlow) verify() error {
	if err := f.reopen(); err != nil {
		return err
	}
	arr, err := stream.OpenPmemArrays(f.pool)
	if err != nil {
		return err
	}
	f.arr = arr
	s := stream.DefaultScalar
	a, b, c := f.a0, f.b0, f.c0
	for k := 0; k < f.iters; k++ {
		c = a
		b = s * c
		c = a + b
		a = b + s*c
	}
	if math.IsInf(a, 0) || math.IsNaN(a) {
		return fmt.Errorf("stream-pmem: %d iterations overflow float64", f.iters)
	}
	for _, v := range []struct {
		name string
		got  []float64
		want float64
	}{{"a", arr.A(), a}, {"b", arr.B(), b}, {"c", arr.C(), c}} {
		for i, x := range v.got {
			if x != v.want {
				return fmt.Errorf("stream-pmem: %s[%d] = %g after reopen, want %g", v.name, i, x, v.want)
			}
		}
	}
	return nil
}

// --- checkpoint-4way: incremental C/R steps, 4-way interleave -----------

const (
	// ckptStateSize keeps a step's working set — the state, the copy
	// prepare keeps of it and the chunks Save writes — near the host's
	// 2 MiB L2: with 4 MiB of state the step ran from L3 and moved with
	// other tenants' memory traffic, 4.6% between identical runs against
	// 1.1% with 1 MiB.
	ckptStateSize = 1 << 20
	ckptChunks    = ckptStateSize / checkpoint.ChunkSize
	ckptDirty     = ckptChunks / 10
	// ckptKeep snapshots stay live after every step.
	ckptKeep     = 4
	ckptSlots    = 8
	ckptPoolSize = 8 << 20
)

type ckptFlow struct {
	pooled
	rng   *rand.Rand
	mgr   *checkpoint.Manager
	state []byte
	// saved[id%ckptKeep] holds snapshot id's content for the ckptKeep-1
	// live snapshots before the latest; the latest is state itself.
	saved          [ckptKeep][]byte
	id             uint64
	perm           []int
	reused, chunks int64
}

func newCkptFlow(e *env, seed uint64) (flow, error) {
	f := &ckptFlow{rng: newRand(seed, "checkpoint-4way"), state: make([]byte, ckptStateSize), perm: make([]int, ckptChunks)}
	for i := range f.saved {
		f.saved[i] = make([]byte, ckptStateSize)
	}
	for i := range f.perm {
		f.perm[i] = i
	}
	if err := f.create(e, "ckpt.obj", checkpoint.Layout, ckptPoolSize); err != nil {
		return nil, err
	}
	if err := f.pretouch(ckptPoolSize); err != nil {
		return nil, err
	}
	mgr, err := checkpoint.New(f.pool, ckptSlots)
	if err != nil {
		return nil, err
	}
	f.mgr = mgr
	fillRand(f.rng, f.state)
	f.id = 1
	return f, mgr.Save(f.id, 0, f.state)
}

// prepare keeps the latest snapshot's content, then dirties a seeded
// 10% of the chunks: one random word in each.
func (f *ckptFlow) prepare() error {
	copy(f.saved[f.id%ckptKeep], f.state)
	for i := 0; i < ckptDirty; i++ {
		j := i + f.rng.IntN(ckptChunks-i)
		f.perm[i], f.perm[j] = f.perm[j], f.perm[i]
		off := f.perm[i]*checkpoint.ChunkSize + f.rng.IntN(checkpoint.ChunkSize/8)*8
		binary.LittleEndian.PutUint64(f.state[off:], f.rng.Uint64())
	}
	return nil
}

func (f *ckptFlow) run() (int64, error) {
	tr := f.e.tr
	next := f.id + 1
	tr.begin(layerSave)
	err := f.mgr.Save(next, f.id, f.state)
	tr.end()
	if err != nil {
		return 0, err
	}
	f.id = next
	reused := f.mgr.LastReused()
	f.reused += int64(reused)
	f.chunks += ckptChunks
	if next > ckptKeep {
		tr.begin(layerDelete)
		err = f.mgr.Delete(next - ckptKeep)
		tr.end()
	}
	return int64(ckptChunks-reused) * checkpoint.ChunkSize, err
}

func (f *ckptFlow) verify() error {
	if err := f.reopen(); err != nil {
		return err
	}
	mgr, err := checkpoint.Open(f.pool)
	if err != nil {
		return err
	}
	f.mgr = mgr
	ids, err := mgr.List()
	if err != nil {
		return err
	}
	first := uint64(1)
	if f.id > ckptKeep {
		first = f.id - ckptKeep + 1
	}
	if len(ids) != int(f.id-first+1) {
		return fmt.Errorf("checkpoint-4way: %d snapshots after reopen, want ids %d..%d", len(ids), first, f.id)
	}
	for id := first; id <= f.id; id++ {
		want := f.state
		if id != f.id {
			want = f.saved[id%ckptKeep]
		}
		got, err := mgr.Load(id)
		if err != nil {
			return fmt.Errorf("checkpoint-4way: load snapshot %d after reopen: %w", id, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("checkpoint-4way: snapshot %d differs from the state it saved", id)
		}
	}
	return nil
}

// --- restart-4way: crash recovery, 4-way interleave ---------------------

const (
	rsPoolSize = 16 << 20
	// One torn 4 KiB transaction per undo-log lane.
	rsObjects = pmem.TxLanes
	rsObjSize = 4096
)

type restartFlow struct {
	pooled
	rng  *rand.Rand
	oids [rsObjects]pmem.OID
	want []byte // the committed content, rsObjects × rsObjSize
	// torn counts recoveries that left an object not rolled back.
	torn int
}

func newRestartFlow(e *env, seed uint64) (flow, error) {
	f := &restartFlow{rng: newRand(seed, "restart-4way"), want: make([]byte, rsObjects*rsObjSize)}
	if err := f.create(e, "restart.obj", "bench-restart", rsPoolSize); err != nil {
		return nil, err
	}
	if err := f.pretouch(rsPoolSize); err != nil {
		return nil, err
	}
	fillRand(f.rng, f.want)
	for k := range f.oids {
		oid, err := f.pool.Alloc(rsObjSize)
		if err != nil {
			return nil, err
		}
		v, err := f.pool.View(oid, rsObjSize)
		if err != nil {
			return nil, err
		}
		copy(v, f.want[k*rsObjSize:])
		if err := f.pool.Persist(oid, rsObjSize); err != nil {
			return nil, err
		}
		f.oids[k] = oid
	}
	f.pool.Drain()
	return f, nil
}

// check counts a recovery that left any object changed.
func (f *restartFlow) check() error {
	for k, oid := range f.oids {
		v, err := f.pool.View(oid, rsObjSize)
		if err != nil {
			return err
		}
		if !bytes.Equal(v, f.want[k*rsObjSize:(k+1)*rsObjSize]) {
			f.torn++
			return nil
		}
	}
	return nil
}

// prepare checks the previous recovery, then opens one transaction per
// lane, scribbles over its object and persists the scribble, so every
// lane's undo log must roll media back; then the power fails.
func (f *restartFlow) prepare() error {
	if err := f.check(); err != nil {
		return err
	}
	for _, oid := range f.oids {
		tx, err := f.pool.Begin()
		if err != nil {
			return err
		}
		if err := tx.AddRange(oid, 0, rsObjSize); err != nil {
			return err
		}
		v, err := f.pool.View(oid, rsObjSize)
		if err != nil {
			return err
		}
		fillRand(f.rng, v)
		if err := f.pool.Persist(oid, rsObjSize); err != nil {
			return err
		}
	}
	f.pool.SimulateCrash()
	return nil
}

func (f *restartFlow) run() (int64, error) {
	if err := f.reopen(); err != nil {
		return 0, err
	}
	return rsPoolSize, nil
}

func (f *restartFlow) verify() error {
	if err := f.reopen(); err != nil {
		return err
	}
	if err := f.check(); err != nil {
		return err
	}
	if f.torn > 0 {
		return fmt.Errorf("restart-4way: %d recoveries left a torn transaction visible", f.torn)
	}
	return nil
}
