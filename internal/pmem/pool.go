// Package pmem is the Go equivalent of PMDK's libpmemobj, the library
// STREAM-PMem is written against (paper §3.1, Listings 1-2): pools
// created/opened by layout name, object allocation with OIDs, direct
// load/store access to a mapped view, explicit persist/drain ordering,
// and undo-log transactions that guarantee "either all of the
// modifications are successfully applied or none of them take effect"
// (§1.4).
//
// Persistence model. A pool lives on a Region (a pmemfs file over a
// device, possibly reached through the CXL protocol). Open maps the pool
// into a volatile view — the analogue of the CPU-cache/DRAM image of a
// DAX mapping. Stores hit the view; Persist flushes ranges to the region
// (clwb), Drain orders them (sfence). SimulateCrash throws the view away
// and, when the media is volatile, the region too — which is exactly the
// difference between the paper's DRAM-emulated PMem and the
// battery-backed CXL module.
//
// Concurrency model (see DESIGN.md §Concurrency). The pool is safe for
// concurrent use by many goroutines: the allocator is serialised behind
// its own lock, the undo log is carved into TxLanes independent lanes so
// up to TxLanes transactions run and commit concurrently, and lifecycle
// (Close/SimulateCrash) excludes in-flight operations through a
// read-write state lock. Callers keep single-writer semantics per
// object: two goroutines may run transactions on disjoint objects in
// parallel, but one object has at most one writer at a time, exactly as
// PMDK scopes transactions per thread.
package pmem

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Region is the byte store a pool sits on (pmemfs.File satisfies this).
// Implementations must be safe for concurrent use. ReadAt and WriteAt
// must not keep p after they return: the pool reuses its undo-log
// lanes' buffers across transactions.
type Region interface {
	ReadAt(p []byte, off int64) error
	WriteAt(p []byte, off int64) error
	Size() int64
	Persistent() bool
}

// Pool geometry.
const (
	// Magic identifies a pool ("pmemobj_create" writes PMDK's; ours).
	Magic = "GOPMEMOBJ\x01"
	// Version of the on-media format. Version 2 splits the undo log
	// into TxLanes independent lanes.
	Version = 2
	// headerSize reserves the first block for the pool header.
	headerSize = 512
	// DefaultLogSize is the undo-log region size, shared by all lanes.
	// Grown from the v1 format's 256 KiB when the log was carved into
	// lanes (while keeping 1 MiB regions poolable), so one transaction
	// still snapshots up to DefaultLogSize/TxLanes = 96 KiB; v1
	// allowed ~256 KiB for its single transaction, and callers with
	// larger transactional state must check TxSnapshotLimit at setup
	// time, as solver.NewESRState does.
	DefaultLogSize = 768 << 10
	// TxLanes is the number of independent undo-log lanes and therefore
	// the number of transactions that may be in flight concurrently.
	TxLanes = 8
	// MinPoolSize is the smallest usable pool.
	MinPoolSize = headerSize + DefaultLogSize + heapAlign + blockHeaderSize + 64
	// MaxLayoutName bounds the layout string (PMDK: 1024; we use 64).
	MaxLayoutName = 64
)

// header field offsets.
const (
	hdrMagic    = 0   // 10 bytes
	hdrVersion  = 12  // u32
	hdrLayout   = 16  // 64 bytes
	hdrPoolSize = 80  // u64
	hdrLogOff   = 88  // u64
	hdrLogSize  = 96  // u64
	hdrHeapOff  = 104 // u64
	hdrRootOff  = 112 // u64
	hdrRootSize = 120 // u64
	hdrPoolID   = 128 // u64
	hdrCRC      = 136 // u32 over [0, hdrCRC)
)

// OID names a persistent object: an offset inside a specific pool,
// mirroring PMDK's PMEMoid {pool_uuid_lo, off}.
type OID struct {
	PoolID uint64
	Off    uint64
}

// IsNull reports the null OID.
func (o OID) IsNull() bool { return o.Off == 0 }

func (o OID) String() string { return fmt.Sprintf("oid{%#x+%#x}", o.PoolID, o.Off) }

// Stats counts persistence primitives, the analogue of counting
// clwb/sfence instructions.
type Stats struct {
	Persists     atomic.Int64
	PersistBytes atomic.Int64
	Drains       atomic.Int64
	TxCommits    atomic.Int64
	TxAborts     atomic.Int64
	Allocs       atomic.Int64
	Frees        atomic.Int64
}

// Pool is an open persistent object pool, safe for concurrent use (see
// the package comment for the concurrency model).
type Pool struct {
	region Region
	layout string
	poolID uint64
	size   int64

	// Geometry, immutable after Create/Open.
	logOff, logSize uint64
	heapOff         uint64

	// stateMu guards lifecycle (closed/crashed, the view mapping).
	// Every data-path operation holds it for read; Close and
	// SimulateCrash hold it for write, excluding all traffic.
	stateMu sync.RWMutex
	view    []byte
	closed  bool
	crashed bool

	// heapMu serialises the allocator and the header fields it owns
	// (rootOff/rootSize). Always acquired after stateMu.
	heapMu            sync.Mutex
	heap              *heap
	rootOff, rootSize uint64

	// lane holds each undo-log lane's state. freeLanes is the set of
	// free lanes, bit i for lane i: a claim clears the lowest set bit by
	// compare-and-swap, holding stateMu for read, and a release sets its
	// bit with one OR. A claim that finds no bit set counts itself in
	// laneWaiters and waits on lanes with stateMu dropped. A release
	// that finds goroutines waiting takes a free bit back at once and
	// sends that lane on lanes, so it goes straight to the longest
	// waiter; a lane sent when no waiter is left to take it stays
	// buffered there, free, for the next claim that finds the set
	// empty. lanesLost counts lanes permanently retired after I/O
	// failures mid-Abort: their undo entries must survive for recovery,
	// so they are never freed again, and the abandon that retires the
	// last one closes lanes, failing every waiter. The lanes neither
	// free nor lost carry open transactions (activeTx).
	lane        [TxLanes]txLane
	freeLanes   atomic.Uint32
	lanes       chan *txLane
	laneWaiters atomic.Int32
	lanesLost   atomic.Int32

	stats Stats
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// PoolError is a structured pool failure.
type PoolError struct {
	Op     string
	Layout string
	Why    string
}

func (e *PoolError) Error() string {
	return fmt.Sprintf("pmem: %s(%q): %s", e.Op, e.Layout, e.Why)
}

// initLanes numbers the lanes and marks every one free; called once at
// Create/Open, before the log is touched.
func (p *Pool) initLanes() {
	for i := range p.lane {
		p.lane[i].idx = uint64(i)
	}
	p.freeLanes.Store(1<<TxLanes - 1)
	p.lanes = make(chan *txLane, TxLanes)
}

// activeTx counts open transactions: the lanes neither free nor lost.
// For a caller holding stateMu for write it counts, besides the live
// transactions, only a lane a waiting Begin has just been handed and
// has yet to mark active.
func (p *Pool) activeTx() int {
	return TxLanes - bits.OnesCount32(p.freeLanes.Load()) - len(p.lanes) - int(p.lanesLost.Load())
}

// Create initialises a new pool with the given layout name on region,
// the equivalent of pmemobj_create (Listing 2 line 10).
func Create(region Region, layout string) (*Pool, error) {
	if region == nil {
		return nil, &PoolError{Op: "create", Layout: layout, Why: "nil region"}
	}
	if len(layout) == 0 || len(layout) > MaxLayoutName {
		return nil, &PoolError{Op: "create", Layout: layout, Why: "layout name length outside 1..64"}
	}
	size := region.Size()
	if size < MinPoolSize {
		return nil, &PoolError{Op: "create", Layout: layout, Why: fmt.Sprintf("region %d bytes below minimum %d", size, MinPoolSize)}
	}
	// Refuse to clobber an existing pool.
	probe := make([]byte, len(Magic))
	if err := region.ReadAt(probe, 0); err != nil {
		return nil, err
	}
	if string(probe) == Magic {
		return nil, &PoolError{Op: "create", Layout: layout, Why: "region already contains a pool"}
	}

	p := &Pool{
		region:  region,
		view:    make([]byte, size),
		layout:  layout,
		size:    size,
		logOff:  headerSize,
		logSize: DefaultLogSize,
	}
	p.heapOff = alignUp64(p.logOff+p.logSize, heapAlign)
	p.poolID = poolIDFor(layout, size)
	p.initLanes()
	p.heap = newHeap(p, p.heapOff, uint64(size))
	if err := p.heap.format(); err != nil {
		return nil, err
	}
	if err := p.clearLog(); err != nil {
		return nil, err
	}
	p.writeHeader()
	if err := p.persistRaw(0, headerSize); err != nil {
		return nil, err
	}
	return p, nil
}

// Open maps an existing pool, validating magic, version, layout and
// header checksum, then runs undo-log recovery — the pmemobj_open path
// of Listing 2 line 12.
func Open(region Region, layout string) (*Pool, error) {
	if region == nil {
		return nil, &PoolError{Op: "open", Layout: layout, Why: "nil region"}
	}
	size := region.Size()
	if size < MinPoolSize {
		return nil, &PoolError{Op: "open", Layout: layout, Why: "region too small"}
	}
	hdr := make([]byte, headerSize)
	if err := region.ReadAt(hdr, 0); err != nil {
		return nil, err
	}
	if string(hdr[hdrMagic:hdrMagic+len(Magic)]) != Magic {
		return nil, &PoolError{Op: "open", Layout: layout, Why: "no pool present (bad magic)"}
	}
	if v := binary.LittleEndian.Uint32(hdr[hdrVersion:]); v != Version {
		return nil, &PoolError{Op: "open", Layout: layout, Why: fmt.Sprintf("version %d unsupported", v)}
	}
	if got := binary.LittleEndian.Uint32(hdr[hdrCRC:]); got != crc32.Checksum(hdr[:hdrCRC], crcTable) {
		return nil, &PoolError{Op: "open", Layout: layout, Why: "header checksum mismatch"}
	}
	stored := trimNul(hdr[hdrLayout : hdrLayout+MaxLayoutName])
	if stored != layout {
		return nil, &PoolError{Op: "open", Layout: layout, Why: fmt.Sprintf("layout mismatch: pool has %q", stored)}
	}
	if ps := binary.LittleEndian.Uint64(hdr[hdrPoolSize:]); ps != uint64(size) {
		return nil, &PoolError{Op: "open", Layout: layout, Why: "pool size mismatch"}
	}

	p := &Pool{
		region:   region,
		layout:   layout,
		size:     size,
		logOff:   binary.LittleEndian.Uint64(hdr[hdrLogOff:]),
		logSize:  binary.LittleEndian.Uint64(hdr[hdrLogSize:]),
		heapOff:  binary.LittleEndian.Uint64(hdr[hdrHeapOff:]),
		rootOff:  binary.LittleEndian.Uint64(hdr[hdrRootOff:]),
		rootSize: binary.LittleEndian.Uint64(hdr[hdrRootSize:]),
		poolID:   binary.LittleEndian.Uint64(hdr[hdrPoolID:]),
	}
	if p.logSize < TxLanes*laneHeaderSize || p.logSize%TxLanes != 0 {
		return nil, &PoolError{Op: "open", Layout: layout, Why: "undo log size not divisible into lanes"}
	}
	p.initLanes()
	// Map the view with a single media scan (over a CXL region this is
	// the dominant open cost — one burst-path read of the whole pool),
	// then run undo-log recovery from the in-memory image: the log
	// region in the view is exactly what a pre-view media read would
	// have returned, and rollback writes restore both the media and the
	// view, so a torn transaction is rolled back on media before the
	// pool is usable — the same guarantee the old read-log-then-reread-
	// everything sequence gave, at half the media traffic.
	p.view = make([]byte, size)
	if err := region.ReadAt(p.view, 0); err != nil {
		return nil, err
	}
	if err := p.recoverLogFromView(); err != nil {
		return nil, err
	}
	p.heap = newHeap(p, p.heapOff, uint64(size))
	if err := p.heap.rebuild(); err != nil {
		return nil, err
	}
	return p, nil
}

// CreateOrOpen opens an existing pool or creates a fresh one — the
// idiom of Listing 2 lines 10-12.
func CreateOrOpen(region Region, layout string) (*Pool, error) {
	p, err := Create(region, layout)
	if err == nil {
		return p, nil
	}
	if pe, ok := err.(*PoolError); ok && pe.Why == "region already contains a pool" {
		return Open(region, layout)
	}
	return nil, err
}

// writeHeader renders the header into the view; callers hold heapMu (or
// are in single-threaded setup) since rootOff/rootSize live there.
func (p *Pool) writeHeader() {
	hdr := p.view[:headerSize]
	for i := range hdr {
		hdr[i] = 0
	}
	copy(hdr[hdrMagic:], Magic)
	binary.LittleEndian.PutUint32(hdr[hdrVersion:], Version)
	copy(hdr[hdrLayout:hdrLayout+MaxLayoutName], p.layout)
	binary.LittleEndian.PutUint64(hdr[hdrPoolSize:], uint64(p.size))
	binary.LittleEndian.PutUint64(hdr[hdrLogOff:], p.logOff)
	binary.LittleEndian.PutUint64(hdr[hdrLogSize:], p.logSize)
	binary.LittleEndian.PutUint64(hdr[hdrHeapOff:], p.heapOff)
	binary.LittleEndian.PutUint64(hdr[hdrRootOff:], p.rootOff)
	binary.LittleEndian.PutUint64(hdr[hdrRootSize:], p.rootSize)
	binary.LittleEndian.PutUint64(hdr[hdrPoolID:], p.poolID)
	binary.LittleEndian.PutUint32(hdr[hdrCRC:], crc32.Checksum(hdr[:hdrCRC], crcTable))
}

// Layout returns the pool's layout name.
func (p *Pool) Layout() string { return p.layout }

// PoolID returns the pool identity used in OIDs.
func (p *Pool) PoolID() uint64 { return p.poolID }

// Size returns the pool size in bytes.
func (p *Pool) Size() int64 { return p.size }

// Persistent reports whether the backing media is durable.
func (p *Pool) Persistent() bool { return p.region.Persistent() }

// Stats exposes persistence counters.
func (p *Pool) Stats() *Stats { return &p.stats }

// checkLive reports lifecycle failures; callers hold stateMu (read or
// write).
func (p *Pool) checkLive(op string) error {
	if p.closed {
		return &PoolError{Op: op, Layout: p.layout, Why: "pool closed"}
	}
	if p.crashed {
		return &PoolError{Op: op, Layout: p.layout, Why: "pool crashed; reopen to recover"}
	}
	return nil
}

// checkOID validates the range [oid.Off+off, +n) against the immutable
// pool geometry. The offset, off and n are each checked against the
// room left, so no sum wraps.
func (p *Pool) checkOID(op string, oid OID, off, n uint64) error {
	if oid.PoolID != p.poolID {
		return &PoolError{Op: op, Layout: p.layout, Why: fmt.Sprintf("%v belongs to another pool", oid)}
	}
	size := uint64(p.size)
	if oid.Off < p.heapOff+blockHeaderSize || oid.Off > size || off > size-oid.Off || n > size-oid.Off-off {
		return &PoolError{Op: op, Layout: p.layout, Why: fmt.Sprintf("%v+%d, %d bytes, outside heap", oid, off, n)}
	}
	return nil
}

// View returns the mapped bytes of an object: direct load/store access,
// the pmemobj_direct analogue. The slice aliases pool memory; writes to
// it are volatile until persisted. Concurrent writers of one object
// must coordinate among themselves (single-writer per object).
func (p *Pool) View(oid OID, n uint64) ([]byte, error) { return p.viewAt(oid, 0, n) }

// viewAt is View over [oid.Off+off, +n).
func (p *Pool) viewAt(oid OID, off, n uint64) ([]byte, error) {
	p.stateMu.RLock()
	defer p.stateMu.RUnlock()
	if err := p.checkLive("view"); err != nil {
		return nil, err
	}
	if err := p.checkOID("view", oid, off, n); err != nil {
		return nil, err
	}
	return p.object(oid, off, n), nil
}

// object slices the mapped bytes [oid.Off+off, +n), capped at their
// end. The caller holds stateMu for read and has checked the range.
func (p *Pool) object(oid OID, off, n uint64) []byte {
	start := oid.Off + off
	return p.view[start : start+n : start+n]
}

// Persist flushes [oid, oid+n) from the view to the media — clwb over
// the range. It does not imply ordering; call Drain for the fence.
func (p *Pool) Persist(oid OID, n uint64) error { return p.persistAt(oid, 0, n) }

// persistAt is Persist over [oid.Off+off, +n).
func (p *Pool) persistAt(oid OID, off, n uint64) error {
	p.stateMu.RLock()
	defer p.stateMu.RUnlock()
	if err := p.checkLive("persist"); err != nil {
		return err
	}
	if err := p.checkOID("persist", oid, off, n); err != nil {
		return err
	}
	return p.persistRaw(int64(oid.Off+off), int64(n))
}

// persistRaw flushes a raw pool range; callers hold stateMu for read
// (so the view cannot vanish mid-flush) or are in single-threaded
// setup. Disjoint ranges flush concurrently.
func (p *Pool) persistRaw(off, n int64) error {
	if err := p.region.WriteAt(p.view[off:off+n], off); err != nil {
		return err
	}
	p.stats.Persists.Add(1)
	p.stats.PersistBytes.Add(n)
	return nil
}

// Drain is the store fence pairing with Persist. The simulated media
// completes writes synchronously, so Drain only counts — but callers
// must still place it correctly: the crash tests validate persist
// ordering through the log protocol, as on real hardware.
func (p *Pool) Drain() {
	p.stats.Drains.Add(1)
}

// Root returns the root object, allocating it with the given size on
// first use (pmemobj_root). The size must match on subsequent calls.
func (p *Pool) Root(size uint64) (OID, error) {
	p.stateMu.RLock()
	defer p.stateMu.RUnlock()
	if err := p.checkLive("root"); err != nil {
		return OID{}, err
	}
	if size == 0 {
		return OID{}, &PoolError{Op: "root", Layout: p.layout, Why: "zero size"}
	}
	p.heapMu.Lock()
	defer p.heapMu.Unlock()
	if p.rootOff != 0 {
		if size != p.rootSize {
			return OID{}, &PoolError{Op: "root", Layout: p.layout, Why: fmt.Sprintf("root exists with size %d, requested %d", p.rootSize, size)}
		}
		return OID{PoolID: p.poolID, Off: p.rootOff}, nil
	}
	off, err := p.heap.alloc(size, nil)
	if err != nil {
		return OID{}, err
	}
	p.rootOff, p.rootSize = off, size
	p.writeHeader()
	if err := p.persistRaw(0, headerSize); err != nil {
		return OID{}, err
	}
	p.stats.Allocs.Add(1)
	return OID{PoolID: p.poolID, Off: off}, nil
}

// Alloc allocates a zeroed object of n bytes (POBJ_ALLOC, Listing 2
// line 7). The data offset is 64-byte aligned, so Float64s views are
// always correctly aligned.
func (p *Pool) Alloc(n uint64) (OID, error) {
	return p.alloc("alloc", n, nil)
}

// AllocFrom allocates an object of len(src) bytes holding a copy of
// src: the constructor form of pmemobj_alloc. The object reaches the
// media with the allocation itself (block header first, then src and
// its zeroed slack in one flush), so each byte is written once where
// Alloc followed by a copy and Persist writes it twice. Until the
// caller publishes the OID, a crash leaks at most the one block, the
// same window as Alloc.
func (p *Pool) AllocFrom(src []byte) (OID, error) {
	return p.alloc("allocfrom", uint64(len(src)), src)
}

func (p *Pool) alloc(op string, n uint64, src []byte) (OID, error) {
	p.stateMu.RLock()
	defer p.stateMu.RUnlock()
	if err := p.checkLive(op); err != nil {
		return OID{}, err
	}
	if n == 0 {
		return OID{}, &PoolError{Op: op, Layout: p.layout, Why: "zero size"}
	}
	p.heapMu.Lock()
	defer p.heapMu.Unlock()
	off, err := p.heap.alloc(n, src)
	if err != nil {
		return OID{}, err
	}
	p.stats.Allocs.Add(1)
	return OID{PoolID: p.poolID, Off: off}, nil
}

// Free releases an object.
func (p *Pool) Free(oid OID) error {
	p.stateMu.RLock()
	defer p.stateMu.RUnlock()
	if err := p.checkLive("free"); err != nil {
		return err
	}
	if err := p.checkOID("free", oid, 0, 0); err != nil {
		return err
	}
	p.heapMu.Lock()
	defer p.heapMu.Unlock()
	if oid.Off == p.rootOff {
		return &PoolError{Op: "free", Layout: p.layout, Why: "cannot free the root object"}
	}
	if err := p.heap.free(oid.Off); err != nil {
		return err
	}
	p.stats.Frees.Add(1)
	return nil
}

// AllocSize returns the usable size of an allocated object.
func (p *Pool) AllocSize(oid OID) (uint64, error) {
	p.stateMu.RLock()
	defer p.stateMu.RUnlock()
	if err := p.checkLive("allocsize"); err != nil {
		return 0, err
	}
	if err := p.checkOID("allocsize", oid, 0, 0); err != nil {
		return 0, err
	}
	p.heapMu.Lock()
	defer p.heapMu.Unlock()
	return p.heap.userSize(oid.Off)
}

// Close flushes the header and detaches the view. Objects not persisted
// are lost, as with a real mapping.
func (p *Pool) Close() error {
	p.stateMu.Lock()
	defer p.stateMu.Unlock()
	if p.closed {
		return &PoolError{Op: "close", Layout: p.layout, Why: "already closed"}
	}
	if p.activeTx() != 0 && !p.crashed {
		return &PoolError{Op: "close", Layout: p.layout, Why: "transaction in flight"}
	}
	p.closed = true
	p.view = nil
	return nil
}

// SimulateCrash models a power failure: the view (CPU caches + DRAM
// image) vanishes, and volatile media loses the region too. The pool
// becomes unusable; Open the region again to run recovery. The
// PowerCycler interface lets device-backed regions participate.
func (p *Pool) SimulateCrash() {
	p.stateMu.Lock()
	defer p.stateMu.Unlock()
	p.crashed = true
	p.view = nil
	if pc, ok := p.region.(PowerCycler); ok {
		pc.PowerCycle()
	}
}

// PowerCycler is implemented by regions whose media can lose power
// (pmemfs files over memdev devices forward to Device.PowerCycle).
type PowerCycler interface {
	PowerCycle()
}

func alignUp64(v, a uint64) uint64 { return (v + a - 1) &^ (a - 1) }

func trimNul(b []byte) string {
	for i, c := range b {
		if c == 0 {
			return string(b[:i])
		}
	}
	return string(b)
}

// poolIDFor derives a stable pool identity.
func poolIDFor(layout string, size int64) uint64 {
	h := crc32.Checksum([]byte(layout), crcTable)
	h2 := crc32.Checksum([]byte(fmt.Sprint(size)), crcTable)
	id := uint64(h)<<32 | uint64(h2)
	if id == 0 {
		id = 1
	}
	return id
}
