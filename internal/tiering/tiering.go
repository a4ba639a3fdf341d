// Package tiering implements the paper's second future-work item (§6):
// "Hybrid Architectures: Combining different memory technologies, such
// as DDR, PMem, and CXL memory, in a hybrid memory architecture could
// offer a balanced solution that leverages the strengths of each
// technology."
//
// A Manager owns a set of fixed-size pages whose backing tier is chosen
// by access frequency: hot pages are promoted toward the fastest tier
// with free capacity, cold pages demoted toward the slowest. Promotion
// and demotion physically move the page contents between devices (real
// data movement, as everywhere in this repository) and the modelled
// cost of every migration is accounted.
//
// The Manager is the mechanism half; the policy half is the Daemon
// (daemon.go), which watches device-side hotness counters
// (memdev.Stats heat windows) and runs budgeted, hysteresis-guarded
// promotion/demotion epochs each time its caller runs one. New
// allocations land in the far tier (cold start) and earn their way up.
//
// Concurrency model: foreground Read/Write on disjoint pages proceed
// fully in parallel — the manager mutex guards only the placement maps
// and is never held across device I/O. Each page carries its own
// read-write placement lock (read-held across foreground I/O,
// write-held across migration of that one page), so a 2 MiB migration
// stalls accesses to the page being moved and nothing else. Migrations
// themselves are serialized by a dedicated lock so budget accounting
// and free-slot reservations stay simple. Lock order: page lock before
// manager lock; the manager lock is never held while taking a page
// lock or issuing I/O.
package tiering

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"cxlpmem/internal/cxl"
	"cxlpmem/internal/memdev"
	"cxlpmem/internal/topology"
	"cxlpmem/internal/units"
)

// PageSize is the migration granule (2 MiB, a huge page).
const PageSize = 2 << 20

// migrateChunk is the double-buffering granule for page moves: while
// chunk k drains into the destination tier, chunk k+1 is already being
// fetched from the source, so a cross-tier move costs roughly
// max(read, write) instead of read+write.
const migrateChunk = 256 << 10

// ErrTierFull reports a targeted move whose destination tier has no
// free slot; the caller (the daemon's epoch planner) demotes or swaps
// to make room instead.
var ErrTierFull = errors.New("tiering: destination tier full")

// Tier is one memory technology in the hybrid hierarchy, fastest first.
type Tier struct {
	// Name of the tier ("ddr5", "cxl", "dcpmm").
	Name string
	// Node backing the tier.
	Node *topology.Node
	// Capacity in pages granted to the manager.
	CapacityPages int
	// IO is the tier's data path. Left nil, NewManager resolves it from
	// the node (Node.DataPath()): the striped or window-translated
	// CXL.mem path for CXL tiers, the raw device for direct-attached
	// ones. Tests may inject a custom MemIO.
	IO cxl.MemIO

	used map[PageID]int64 // page -> tier-relative offset
	free []int64          // free tier-relative offsets
	// dirty marks free slots still holding a vacated page's bytes (a
	// migration moved the page away, or a scrub failed). Alloc zeroes a
	// dirty slot before handing it to a new owner, upholding the
	// repo-wide scrub-on-free guarantee without paying a 2 MiB zero on
	// every migration.
	dirty map[int64]bool
	// heat observes device-side hotness for this tier's slab (slot
	// offsets map 1:1 onto device addresses in every supported data
	// path). Set by enableDeviceHeat; nil until then.
	heat *memdev.Heat
}

// PageID names a managed page.
type PageID int

// pageState tracks placement and heat of one page.
type pageState struct {
	// mu is the placement lock: read-held across foreground I/O,
	// write-held across migration or free of this page. tier, off and
	// freed are guarded by it.
	mu    sync.RWMutex
	tier  int   // index into tiers
	off   int64 // tier-relative slot offset
	freed bool

	// accesses counts manager-path accesses since the last epoch;
	// atomic so the foreground path never write-locks.
	accesses atomic.Uint64

	// Daemon-owned policy state, touched only from the (single)
	// daemon's epoch runner: exponentially decayed heat and epochs
	// since the page last moved.
	heat      float64
	residency uint64
}

// Manager places pages across tiers.
type Manager struct {
	// mu guards the placement maps (pages, every tier's used/free/
	// dirty), the id counter and the migration stats. Never held
	// across device I/O.
	mu    sync.RWMutex
	tiers []*Tier
	pages map[PageID]*pageState
	next  PageID

	// migMu serializes migrations (moveTo, swap) against each other;
	// foreground I/O never takes it.
	migMu sync.Mutex

	// stats, guarded by mu.
	promotions    int
	demotions     int
	bytesMigrated int64
}

// NewManager builds a hierarchy from fastest to slowest tier. Each
// tier's device must hold CapacityPages × PageSize bytes.
func NewManager(tiers ...*Tier) (*Manager, error) {
	if len(tiers) < 2 {
		return nil, fmt.Errorf("tiering: need at least two tiers, got %d", len(tiers))
	}
	for i, t := range tiers {
		if t.Node == nil || t.CapacityPages <= 0 {
			return nil, fmt.Errorf("tiering: tier %d (%s) invalid", i, t.Name)
		}
		need := int64(t.CapacityPages) * PageSize
		if need > t.Node.Device.Capacity().Bytes() {
			return nil, fmt.Errorf("tiering: tier %s wants %d bytes, device has %v", t.Name, need, t.Node.Device.Capacity())
		}
		if t.IO == nil {
			t.IO = t.Node.DataPath()
		}
		t.used = make(map[PageID]int64)
		t.free = t.free[:0]
		for p := t.CapacityPages - 1; p >= 0; p-- {
			t.free = append(t.free, int64(p)*PageSize)
		}
		t.dirty = make(map[int64]bool)
	}
	return &Manager{tiers: tiers, pages: make(map[PageID]*pageState)}, nil
}

// Tiers lists the hierarchy.
func (m *Manager) Tiers() []*Tier { return m.tiers }

// enableDeviceHeat attaches windowed hotness counters to every tier's
// backing device at PageSize granularity, so heat is observed at the
// device — counting every access path that reaches the media, not just
// Manager.Read/Write. Idempotent; the Daemon calls it on construction.
func (m *Manager) enableDeviceHeat() error {
	for _, t := range m.tiers {
		h, err := t.Node.Device.Stats().EnableHeat(t.Node.Device.Capacity(), PageSize)
		if err != nil {
			return fmt.Errorf("tiering: tier %s: %w", t.Name, err)
		}
		t.heat = h
	}
	return nil
}

// zeroChunk is the shared scrub source: always-zero bytes written over
// a slot being scrubbed. Read-only after init.
var zeroChunk = make([]byte, migrateChunk)

// zeroSlot scrubs one page-sized slot through the tier's data path.
func zeroSlot(io cxl.MemIO, off int64) error {
	for o := int64(0); o < PageSize; o += migrateChunk {
		if err := io.WriteAt(zeroChunk, off+o); err != nil {
			return err
		}
	}
	return nil
}

// popFreeLocked takes a slot off a tier's free list, reporting whether
// it still holds stale bytes. Caller holds m.mu.
func popFreeLocked(t *Tier) (off int64, dirty bool) {
	off = t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	dirty = t.dirty[off]
	delete(t.dirty, off)
	return off, dirty
}

// Alloc places a new page on the slowest tier with room: cold-start
// placement (memtier's cold-start feature), so the page earns promotion
// through observed heat. The slot is guaranteed to read as zeros.
func (m *Manager) Alloc() (PageID, error) {
	m.mu.Lock()
	for ti := len(m.tiers) - 1; ti >= 0; ti-- {
		t := m.tiers[ti]
		if len(t.free) == 0 {
			continue
		}
		off, dirty := popFreeLocked(t)
		id := m.next
		m.next++
		st := &pageState{tier: ti, off: off}
		// Hold the page's placement lock across the scrub so a daemon
		// epoch cannot migrate the page mid-zero.
		st.mu.Lock()
		t.used[id] = off
		m.pages[id] = st
		m.mu.Unlock()
		if dirty {
			if err := zeroSlot(t.IO, off); err != nil {
				// Undo the allocation; the slot stays dirty.
				st.freed = true
				st.mu.Unlock()
				m.mu.Lock()
				delete(m.pages, id)
				delete(t.used, id)
				t.free = append(t.free, off)
				t.dirty[off] = true
				m.mu.Unlock()
				return 0, fmt.Errorf("tiering: scrubbing slot for new page: %w", err)
			}
		}
		st.mu.Unlock()
		return id, nil
	}
	m.mu.Unlock()
	return 0, fmt.Errorf("tiering: all tiers full")
}

// Free releases a page. The vacated slot is scrubbed before it becomes
// allocatable again, so a later Alloc can never leak the previous
// owner's bytes (the repo-wide scrub-on-free guarantee). If the scrub
// itself fails the slot is returned to the free list dirty — Alloc
// re-scrubs it before reuse — and the error is reported.
func (m *Manager) Free(id PageID) error {
	m.mu.RLock()
	st := m.pages[id]
	m.mu.RUnlock()
	if st == nil {
		return fmt.Errorf("tiering: no page %d", id)
	}
	st.mu.Lock()
	if st.freed {
		st.mu.Unlock()
		return fmt.Errorf("tiering: no page %d", id)
	}
	st.freed = true
	t := m.tiers[st.tier]
	off := st.off
	m.mu.Lock()
	delete(m.pages, id)
	delete(t.used, id)
	m.mu.Unlock()
	st.mu.Unlock()
	// Scrub outside every lock — the slot is unreachable (not in used,
	// not yet in free), so nothing can race the zeroing.
	scrubErr := zeroSlot(t.IO, off)
	m.mu.Lock()
	t.free = append(t.free, off)
	if scrubErr != nil {
		t.dirty[off] = true
	}
	m.mu.Unlock()
	if scrubErr != nil {
		return fmt.Errorf("tiering: scrub on free of page %d: %w", id, scrubErr)
	}
	return nil
}

// lookup fetches a page's state without holding any lock afterwards.
func (m *Manager) lookup(id PageID) (*pageState, error) {
	m.mu.RLock()
	st := m.pages[id]
	m.mu.RUnlock()
	if st == nil {
		return nil, fmt.Errorf("tiering: no page %d", id)
	}
	return st, nil
}

// Read copies from a page, counting the access. Disjoint pages are
// read in parallel; only a migration of this very page blocks it.
func (m *Manager) Read(id PageID, p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > PageSize {
		return fmt.Errorf("tiering: access outside page")
	}
	st, err := m.lookup(id)
	if err != nil {
		return err
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.freed {
		return fmt.Errorf("tiering: no page %d", id)
	}
	st.accesses.Add(1)
	return m.tiers[st.tier].IO.ReadAt(p, st.off+off)
}

// Write copies into a page, counting the access. Disjoint pages are
// written in parallel; only a migration of this very page blocks it.
func (m *Manager) Write(id PageID, p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > PageSize {
		return fmt.Errorf("tiering: access outside page")
	}
	st, err := m.lookup(id)
	if err != nil {
		return err
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.freed {
		return fmt.Errorf("tiering: no page %d", id)
	}
	st.accesses.Add(1)
	return m.tiers[st.tier].IO.WriteAt(p, st.off+off)
}

// TierOf reports a page's current tier index (0 = fastest).
func (m *Manager) TierOf(id PageID) (int, error) {
	st, err := m.lookup(id)
	if err != nil {
		return 0, err
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.freed {
		return 0, fmt.Errorf("tiering: no page %d", id)
	}
	return st.tier, nil
}

// pagePool recycles migration staging buffers: a daemon epoch over a
// hot working set moves many pages back to back, and a fresh 2 MiB
// allocation per move (two per swap) is pure GC pressure — the buffers
// never outlive the copy.
var pagePool = sync.Pool{New: func() any {
	b := make([]byte, PageSize)
	return &b
}}

// pipeCopy moves n bytes from src to dst through two migrateChunk-sized
// halves of buf, double-buffered: the unbuffered handoff makes the
// reader block until the writer has accepted chunk k, so the reader
// refills a half only after its previous occupant has fully drained —
// read of chunk k+1 overlaps write of chunk k, with no shared-buffer
// race. The writer keeps draining after a failure so the reader never
// blocks on a dead consumer; the first error from either side wins.
func pipeCopy(src cxl.MemIO, srcOff int64, dst cxl.MemIO, dstOff int64, n int64, buf []byte) error {
	type chunk struct {
		b   []byte
		off int64
	}
	ch := make(chan chunk)
	var wg sync.WaitGroup
	var werr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for c := range ch {
			if werr == nil {
				werr = dst.WriteAt(c.b, dstOff+c.off)
			}
		}
	}()
	var rerr error
	for off := int64(0); off < n; off += migrateChunk {
		end := off + migrateChunk
		if end > n {
			end = n
		}
		b := buf[:end-off]
		if (off/migrateChunk)%2 == 1 {
			b = buf[migrateChunk : migrateChunk+(end-off)]
		}
		if rerr = src.ReadAt(b, srcOff+off); rerr != nil {
			break
		}
		ch <- chunk{b: b, off: off}
	}
	close(ch)
	wg.Wait()
	if rerr != nil {
		return rerr
	}
	return werr
}

// moveTo migrates a page to the given tier (a targeted promotion or
// demotion — the daemon's per-epoch move primitive). Returns
// ErrTierFull when the destination has no free slot. Foreground I/O on
// other pages proceeds during the copy; access to the moving page
// blocks for its duration.
func (m *Manager) moveTo(id PageID, dst int) error {
	m.migMu.Lock()
	defer m.migMu.Unlock()
	if dst < 0 || dst >= len(m.tiers) {
		return fmt.Errorf("tiering: no tier %d", dst)
	}
	st, err := m.lookup(id)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.freed {
		return fmt.Errorf("tiering: no page %d", id)
	}
	if st.tier == dst {
		return nil
	}
	src, dstT := m.tiers[st.tier], m.tiers[dst]
	srcOff := st.off
	m.mu.Lock()
	if len(dstT.free) == 0 {
		m.mu.Unlock()
		return ErrTierFull
	}
	dstOff, _ := popFreeLocked(dstT) // fully overwritten below
	m.mu.Unlock()
	bufp := pagePool.Get().(*[]byte)
	defer pagePool.Put(bufp)
	copyErr := pipeCopy(src.IO, srcOff, dstT.IO, dstOff, PageSize, (*bufp)[:2*migrateChunk])
	m.mu.Lock()
	if copyErr != nil {
		// The slot may hold a partial copy: back to the free list dirty.
		dstT.free = append(dstT.free, dstOff)
		dstT.dirty[dstOff] = true
		m.mu.Unlock()
		return copyErr
	}
	dstT.used[id] = dstOff
	delete(src.used, id)
	src.free = append(src.free, srcOff)
	src.dirty[srcOff] = true // vacated slot still holds the page's bytes
	if dst < st.tier {
		m.promotions++
	} else {
		m.demotions++
	}
	m.bytesMigrated += 2 * PageSize
	m.mu.Unlock()
	st.tier, st.off = dst, dstOff
	return nil
}

// swap exchanges two pages' backing slots (and contents) across tiers:
// page A is staged whole, then B streams into A's old slot through the
// double-buffered pipe (read of B's chunk k+1 overlapping the write of
// chunk k into tier A), and finally the staged A drains into B's slot.
//
// Failure atomicity: the staged copy of A is the undo log. If the pipe
// of B into A's slot fails mid-stream, A's slot holds partial B — the
// staged A is written back and both pages are exactly as before. If
// the final drain of A into B's slot fails, B's slot may hold partial
// A while A's old slot holds a complete B — B is restored from that
// intact copy, then A from the stage. Only if a restore write itself
// also fails is the page left torn, and every error is reported.
func (m *Manager) swap(idA, idB PageID) error {
	m.migMu.Lock()
	defer m.migMu.Unlock()
	stA, err := m.lookup(idA)
	if err != nil {
		return err
	}
	stB, err := m.lookup(idB)
	if err != nil {
		return err
	}
	if stA == stB {
		return nil
	}
	// Lock both placement locks in id order (stable: ids never swap
	// their states) so concurrent swaps cannot deadlock.
	first, second := stA, stB
	if idB < idA {
		first, second = stB, stA
	}
	first.mu.Lock()
	defer first.mu.Unlock()
	second.mu.Lock()
	defer second.mu.Unlock()
	if stA.freed {
		return fmt.Errorf("tiering: no page %d", idA)
	}
	if stB.freed {
		return fmt.Errorf("tiering: no page %d", idB)
	}
	tA, tB := m.tiers[stA.tier], m.tiers[stB.tier]
	offA, offB := stA.off, stB.off
	bufAp := pagePool.Get().(*[]byte)
	chunkp := pagePool.Get().(*[]byte)
	defer pagePool.Put(bufAp)
	defer pagePool.Put(chunkp)
	bufA := *bufAp
	if err := tA.IO.ReadAt(bufA, offA); err != nil {
		return err
	}
	if err := pipeCopy(tB.IO, offB, tA.IO, offA, PageSize, (*chunkp)[:2*migrateChunk]); err != nil {
		// A's slot holds partial B; restore A from the stage.
		if rerr := tA.IO.WriteAt(bufA, offA); rerr != nil {
			return errors.Join(err, fmt.Errorf("tiering: restoring page %d after failed swap: %w", idA, rerr))
		}
		return err
	}
	if err := tB.IO.WriteAt(bufA, offB); err != nil {
		// B's slot may hold partial A; the only intact B now lives in
		// A's old slot. Copy it home, then restore A from the stage.
		restore := pipeCopy(tA.IO, offA, tB.IO, offB, PageSize, (*chunkp)[:2*migrateChunk])
		if restore != nil {
			restore = fmt.Errorf("tiering: restoring page %d after failed swap: %w", idB, restore)
		}
		var restoreA error
		if rerr := tA.IO.WriteAt(bufA, offA); rerr != nil {
			restoreA = fmt.Errorf("tiering: restoring page %d after failed swap: %w", idA, rerr)
		}
		return errors.Join(err, restore, restoreA)
	}
	m.mu.Lock()
	delete(tA.used, idA)
	delete(tB.used, idB)
	tA.used[idB] = offA
	tB.used[idA] = offB
	// A swap always moves one page up and one down.
	m.promotions++
	m.demotions++
	m.bytesMigrated += 4 * PageSize
	m.mu.Unlock()
	stA.tier, stB.tier = stB.tier, stA.tier
	stA.off, stB.off = offB, offA
	return nil
}

// entry pairs a page with its state for planning walks.
type entry struct {
	id PageID
	st *pageState
}

// snapshotLocked lists pages deterministically; caller holds m.mu (any
// mode).
func (m *Manager) snapshotLocked() []entry {
	all := make([]entry, 0, len(m.pages))
	for id, st := range m.pages {
		all = append(all, entry{id, st})
	}
	sort.Slice(all, func(a, b int) bool { return all[a].id < all[b].id })
	return all
}

// Stats summarises migration activity.
type Stats struct {
	Promotions    int
	Demotions     int
	BytesMigrated int64
	PagesPerTier  []int
}

// Stats returns a snapshot.
func (m *Manager) Stats() Stats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s := Stats{
		Promotions:    m.promotions,
		Demotions:     m.demotions,
		BytesMigrated: m.bytesMigrated,
	}
	for _, t := range m.tiers {
		s.PagesPerTier = append(s.PagesPerTier, len(t.used))
	}
	return s
}

// AvgAccessLatency models the average unloaded access latency across the
// current placement for a given access distribution: pages' heat (from
// the counters accumulated since the last epoch) weights each
// tier's latency from core c. This is the figure of merit the hybrid
// architecture optimises.
func (m *Manager) AvgAccessLatency(machine *topology.Machine, c topology.Core) (units.Latency, error) {
	m.mu.RLock()
	all := m.snapshotLocked()
	m.mu.RUnlock()
	var weighted, total float64
	for _, e := range all {
		e.st.mu.RLock()
		tier, freed := e.st.tier, e.st.freed
		e.st.mu.RUnlock()
		if freed {
			continue
		}
		lat, err := machine.AccessLatency(c, m.tiers[tier].Node.ID)
		if err != nil {
			return 0, err
		}
		w := float64(e.st.accesses.Load())
		if w == 0 {
			w = 0.01 // cold pages still count slightly
		}
		weighted += w * lat.Ns()
		total += w
	}
	if total == 0 {
		return 0, fmt.Errorf("tiering: no pages")
	}
	return units.Nanoseconds(weighted / total), nil
}

// NewDDR5CXLDCPMMHierarchy is a convenience builder: the three-tier
// hybrid the paper's future work sketches, assembled from a Setup #1
// machine plus a DCPMM module as the cold tier.
func NewDDR5CXLDCPMMHierarchy(m *topology.Machine, fastPages, midPages, coldPages int) (*Manager, *topology.Machine, error) {
	n0, err := m.Node(0)
	if err != nil {
		return nil, nil, err
	}
	n2, err := m.Node(2)
	if err != nil {
		return nil, nil, err
	}
	pm, err := memdev.NewDCPMM(memdev.DCPMMConfig{Name: "cold-dcpmm", Modules: 1, Capacity: 128 * units.GiB})
	if err != nil {
		return nil, nil, err
	}
	coldNode := &topology.Node{ID: 3, Kind: topology.NodePMem, Device: pm, HomeSocket: 0}
	hybrid := &topology.Machine{
		Name:    m.Name + "+dcpmm",
		Sockets: m.Sockets,
		Nodes:   append(append([]*topology.Node{}, m.Nodes...), coldNode),
		UPI:     m.UPI,
	}
	if err := hybrid.Validate(); err != nil {
		return nil, nil, err
	}
	mgr, err := NewManager(
		&Tier{Name: "ddr5", Node: n0, CapacityPages: fastPages},
		&Tier{Name: "cxl", Node: n2, CapacityPages: midPages},
		&Tier{Name: "dcpmm", Node: coldNode, CapacityPages: coldPages},
	)
	if err != nil {
		return nil, nil, err
	}
	return mgr, hybrid, nil
}
