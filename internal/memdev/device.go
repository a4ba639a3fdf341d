// Package memdev models the byte-addressable memory media the paper
// attaches to its two experimental hosts: on-node DDR4 and DDR5 DIMMs,
// the DDR4 modules on the CXL FPGA prototype, and — as the published
// comparison baseline — an Intel Optane DCPMM module.
//
// A device stores real bytes (sparsely, so a 64 GiB DIMM costs nothing
// until touched) and carries a performance profile consumed by the
// analytic bandwidth engine in internal/perf. Media persistence is a
// property of the device: battery-backed or otherwise non-volatile
// devices survive PowerCycle, plain DRAM does not (paper §1.4: the CXL
// module sits outside the node and can be battery-backed once for all
// compute nodes).
package memdev

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cxlpmem/internal/units"
)

// Kind classifies the media technology of a device.
type Kind int

const (
	// KindDRAM is a conventional volatile DIMM (DDR4 or DDR5).
	KindDRAM Kind = iota
	// KindCXLHDM is host-managed device memory behind a CXL endpoint
	// (the paper's FPGA-attached DDR4, battery-backed).
	KindCXLHDM
	// KindDCPMM is an Intel Optane DC Persistent Memory module.
	KindDCPMM
)

func (k Kind) String() string {
	switch k {
	case KindDRAM:
		return "DRAM"
	case KindCXLHDM:
		return "CXL-HDM"
	case KindDCPMM:
		return "DCPMM"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Profile is the raw performance envelope of the media itself, before any
// fabric (UPI/CXL) costs. internal/perf layers link latency and caps on
// top of this.
type Profile struct {
	// ReadPeak and WritePeak are the sustainable media bandwidths.
	// Symmetric for DRAM; strongly asymmetric for DCPMM (6.6 vs 2.3
	// GB/s published, paper §1.4).
	ReadPeak  units.Bandwidth
	WritePeak units.Bandwidth
	// IdleLatency is the unloaded media access latency.
	IdleLatency units.Latency
	// Kind of the underlying technology.
	Kind Kind
}

// StreamPeak returns the sustainable bandwidth for a traffic mix with the
// given read fraction in [0,1]. Reads and writes share the media in
// proportion to the mix; the combined rate is the harmonic composition of
// the two peaks, which reproduces the strong write penalty of DCPMM while
// leaving symmetric DRAM unchanged.
func (p Profile) StreamPeak(readFrac float64) units.Bandwidth {
	if readFrac < 0 {
		readFrac = 0
	}
	if readFrac > 1 {
		readFrac = 1
	}
	r := float64(p.ReadPeak)
	w := float64(p.WritePeak)
	if r <= 0 || w <= 0 {
		return 0
	}
	inv := readFrac/r + (1-readFrac)/w
	if inv <= 0 {
		return 0
	}
	return units.Bandwidth(1 / inv)
}

// Stats counts accesses to a device and may be read concurrently.
//
// Traffic (reads, writes and the bytes each moved) is read only through
// Snapshot. A device built here counts each access in the 2 MiB page
// whose lock the access already holds (storePage), so its media path
// adds no locked instruction of its own. An access that takes no page
// lock (a read of a page never written, or a zero-length access) counts
// in atomics instead, and so does every access of a device that keeps
// no page lock, through AddRead and AddWrite. Snapshot sums both. An
// access that fails (out of range) is not counted.
//
// The RAS counters are the health state machine's raw inputs
// (internal/ras): Correctable counts errors caught and repaired before a
// demand access consumed them (latent poison a patrol scrub localised,
// link CRC errors the retry machinery recovered are counted separately
// in LinkRetries); Uncorrectable counts errors that reached a consumer —
// demand poison hits and link errors that exhausted their retries.
// LinkRetries counts CRC retransmissions the owning port attributed to
// this device.
type Stats struct {
	reads, writes, bytesRead, bytesWritten atomic.Int64

	// store, for a device built here, holds the per-page counts
	// Snapshot adds to the atomics; nil for a device that counts only
	// through AddRead and AddWrite.
	store *sparseStore

	Correctable   atomic.Int64
	Uncorrectable atomic.Int64
	LinkRetries   atomic.Int64
	// CommandTimeouts counts mailbox commands whose deadline expired
	// before the device answered — the command-plane health input.
	CommandTimeouts atomic.Int64

	// heat, when enabled, holds the windowed per-region hotness
	// counters the tiering policy daemon reads (heat.go).
	heat atomic.Pointer[Heat]
}

// AddRead counts one read of n bytes, for a device that keeps no page
// lock to count under (fabric's tenant media).
func (s *Stats) AddRead(n int) {
	s.reads.Add(1)
	s.bytesRead.Add(int64(n))
}

// AddWrite counts one write of n bytes, as AddRead counts a read.
func (s *Stats) AddWrite(n int) {
	s.writes.Add(1)
	s.bytesWritten.Add(int64(n))
}

// Snapshot returns the traffic counted so far: the atomics plus, for a
// device built here, the counts of every page it ever materialised,
// each read under its page's lock. It follows the store's list of
// pages, so it costs a lock per page, not a walk of the page table.
// Counts never move between pages or into the atomics, so no counter
// reads lower than it did in an earlier Snapshot.
func (s *Stats) Snapshot() (reads, writes, bytesRead, bytesWritten int64) {
	if st := s.store; st != nil {
		for pg := st.pages.Load(); pg != nil; pg = pg.next {
			pg.mu.Lock()
			reads += pg.reads
			writes += pg.writes
			bytesRead += pg.bytesRead
			bytesWritten += pg.bytesWritten
			pg.mu.Unlock()
		}
	}
	return reads + s.reads.Load(), writes + s.writes.Load(),
		bytesRead + s.bytesRead.Load(), bytesWritten + s.bytesWritten.Load()
}

// RASCounters is a plain-value copy of the error counters.
type RASCounters struct {
	Correctable     int64
	Uncorrectable   int64
	LinkRetries     int64
	CommandTimeouts int64
}

// RAS returns a plain-value copy of the error counters.
func (s *Stats) RAS() RASCounters {
	return RASCounters{
		Correctable:     s.Correctable.Load(),
		Uncorrectable:   s.Uncorrectable.Load(),
		LinkRetries:     s.LinkRetries.Load(),
		CommandTimeouts: s.CommandTimeouts.Load(),
	}
}

// Range is a contiguous committed span of a device's address space.
type Range struct {
	Base uint64
	Size uint64
}

// RangeLister is implemented by devices that can enumerate their
// committed (ever-written or currently mapped) address ranges. The
// patrol scrubber walks these instead of the full capacity, so an
// almost-empty 64 GiB device costs almost nothing to scrub.
type RangeLister interface {
	Committed() []Range
}

// Device is a byte-addressable memory medium.
type Device interface {
	// Name identifies the device (e.g. "ddr5-socket0", "cxl-hdm").
	Name() string
	// Capacity is the addressable size in bytes.
	Capacity() units.Size
	// Persistent reports whether contents survive PowerCycle.
	Persistent() bool
	// Profile returns the media performance envelope.
	Profile() Profile
	// ReadAt copies len(p) bytes from offset off into p.
	ReadAt(p []byte, off int64) error
	// WriteAt copies p to offset off.
	WriteAt(p []byte, off int64) error
	// PowerCycle simulates a power loss and restore. Volatile devices
	// lose all contents; persistent devices retain them.
	PowerCycle()
	// Stats exposes access counters.
	Stats() *Stats
}

// AddrError reports an out-of-range access.
type AddrError struct {
	Device string
	Off    int64
	Len    int
	Cap    units.Size
}

func (e *AddrError) Error() string {
	return fmt.Sprintf("memdev: %s: access [%d, %d) outside capacity %d",
		e.Device, e.Off, e.Off+int64(e.Len), e.Cap.Bytes())
}

// pageSize is the sparse-storage granule. 2 MiB mirrors the huge pages a
// DAX mapping would use and keeps the page table small.
const pageSize = 2 << 20

// leafPages is the number of page slots in one leaf of the page table:
// 512 × 2 MiB, so each leaf covers 1 GiB of the device.
const leafPages = 512

// storePage is one materialised 2 MiB page: its own content lock, the
// backing bytes, and the traffic counts of the accesses that took the
// lock. Per-page locking is what lets different hosts' extents
// (disjoint pages of one appliance media) read and write genuinely in
// parallel, while access to any single line — which never spans a
// page — stays linearizable. The lock is a plain Mutex: every holder
// only copies and counts, so readers of one page take turns rather than
// share it, and each access pays the cheaper lock. Counting under it
// costs the access two plain adds where device-wide atomics cost two
// more locked instructions.
type storePage struct {
	mu  sync.Mutex
	buf []byte // nil until written again after a power cycle
	// An access counts one op on the first page it touches and its
	// bytes on each page they land in; mu guards the counts.
	reads, writes, bytesRead, bytesWritten int64

	// next is the page materialised before this one (sparseStore.pages).
	next *storePage
}

// holds reports whether the page has bytes, that is whether it was
// written since the last power cycle.
func (pg *storePage) holds() bool {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	return pg.buf != nil
}

// storeLeaf is one 1 GiB leaf of the page table.
type storeLeaf [leafPages]atomic.Pointer[storePage]

// sparseStore is a lazily allocated byte store. Untouched regions read
// as zero. It is safe for concurrent use: a page is found through a
// two-level table of atomic pointers — a directory with one slot per
// GiB of capacity, each leaf holding 512 page slots — so lookup is two
// loads and no lock, and a 64 GiB device's directory is 64 slots where
// a flat table would take 256 KiB. Each leaf and page is created on
// first write, under grow, and then stays: a power cycle releases a
// page's bytes but keeps the page, its slot and its counts.
// Materialised page content is guarded by the page's own lock. Accesses
// confined to one page (every CXL line transaction, and every burst
// that does not cross a 2 MiB boundary) are linearizable; multi-page
// accesses commit page by page, exactly as a multi-channel memory
// controller commits a multi-beat transfer.
type sparseStore struct {
	dir []atomic.Pointer[storeLeaf]
	cap int64
	// pages lists every materialised page, newest first, for Snapshot
	// and drop; grow serialises page creation, which pushes onto it.
	pages atomic.Pointer[storePage]
	grow  sync.Mutex
}

func newSparseStore(capacity units.Size) *sparseStore {
	c := capacity.Bytes()
	const leafSize = leafPages * pageSize
	return &sparseStore{dir: make([]atomic.Pointer[storeLeaf], (c+leafSize-1)/leafSize), cap: c}
}

// check reports whether n bytes at off lie inside the store. The
// offset and length are each compared with the room left, so no sum
// wraps.
func (s *sparseStore) check(off int64, n int) bool {
	return off >= 0 && n >= 0 && off <= s.cap && int64(n) <= s.cap-off
}

// lookup returns page idx, or nil if it was never touched.
func (s *sparseStore) lookup(idx int64) *storePage {
	if l := s.dir[idx/leafPages].Load(); l != nil {
		return l[idx%leafPages].Load()
	}
	return nil
}

// readAt copies the bytes at off into p and counts the read in st: the
// read on the first page it touches and each page's share of the bytes
// on that page, under the lock the copy holds. A page never written
// reads as zeros and counts its share in st's atomics, as does a
// zero-length read. A page whose bytes a power cycle released reads as
// zeros too, and counts in the page.
func (s *sparseStore) readAt(p []byte, off int64, st *Stats) {
	if len(p) == 0 {
		st.AddRead(0)
		return
	}
	op := int64(1) // the read counts on the first page only
	for len(p) > 0 {
		idx := off / pageSize
		po := off % pageSize
		n := min(pageSize-po, int64(len(p)))
		if pg := s.lookup(idx); pg != nil {
			pg.mu.Lock()
			if pg.buf != nil {
				copy(p[:n], pg.buf[po:])
			} else {
				clear(p[:n])
			}
			pg.reads += op
			pg.bytesRead += n
			pg.mu.Unlock()
		} else {
			clear(p[:n])
			if op != 0 {
				st.reads.Add(1)
			}
			st.bytesRead.Add(n)
		}
		op = 0
		p = p[n:]
		off += n
	}
}

// page returns page idx, creating its leaf and then the page if no
// access has yet: writeAt calls it when lookup finds no page. Creation
// is rare (once per 2 MiB) and takes grow, so a page is on the pages
// list before any access can find it in its slot and count in it.
func (s *sparseStore) page(idx int64) *storePage {
	s.grow.Lock()
	defer s.grow.Unlock()
	dl := &s.dir[idx/leafPages]
	l := dl.Load()
	if l == nil {
		l = new(storeLeaf)
		dl.Store(l)
	}
	slot := &l[idx%leafPages]
	pg := slot.Load()
	if pg == nil {
		pg = &storePage{buf: make([]byte, pageSize), next: s.pages.Load()}
		s.pages.Store(pg)
		slot.Store(pg)
	}
	return pg
}

// writeAt copies p to off and counts the write in st as readAt counts
// a read. A page whose bytes a power cycle released gets fresh ones
// under its lock.
func (s *sparseStore) writeAt(p []byte, off int64, st *Stats) {
	if len(p) == 0 {
		st.AddWrite(0)
		return
	}
	op := int64(1)
	for len(p) > 0 {
		idx := off / pageSize
		po := off % pageSize
		n := min(pageSize-po, int64(len(p)))
		pg := s.lookup(idx)
		if pg == nil {
			pg = s.page(idx)
		}
		pg.mu.Lock()
		if pg.buf == nil {
			pg.buf = make([]byte, pageSize)
		}
		copy(pg.buf[po:], p[:n])
		pg.writes += op
		pg.bytesWritten += n
		pg.mu.Unlock()
		op = 0
		p = p[n:]
		off += n
	}
}

// drop loses the store's contents, as a power cycle of volatile media
// does: it releases each page's bytes under the page's lock. The page
// keeps its slot and its counts, so an access racing the drop reads
// zeros or writes onto fresh bytes, and is counted once, in the page.
func (s *sparseStore) drop() {
	for pg := s.pages.Load(); pg != nil; pg = pg.next {
		pg.mu.Lock()
		pg.buf = nil
		pg.mu.Unlock()
	}
}

// forPages calls f with the index of every page written since the last
// power cycle, in ascending order.
func (s *sparseStore) forPages(f func(idx int64)) {
	for d := range s.dir {
		l := s.dir[d].Load()
		if l == nil {
			continue
		}
		for i := range l {
			if pg := l[i].Load(); pg != nil && pg.holds() {
				f(int64(d)*leafPages + int64(i))
			}
		}
	}
}

// touchedPages reports how many pages hold bytes (test hook).
func (s *sparseStore) touchedPages() int {
	n := 0
	s.forPages(func(int64) { n++ })
	return n
}

// committed enumerates the pages written since the last power cycle as
// ascending, coalesced ranges clipped to the capacity. This is the
// "ever-written" footprint.
func (s *sparseStore) committed() []Range {
	var out []Range
	s.forPages(func(i int64) {
		base := uint64(i) * pageSize
		size := min(uint64(pageSize), uint64(s.cap)-base)
		if n := len(out); n > 0 && out[n-1].Base+out[n-1].Size == base {
			out[n-1].Size += size
		} else {
			out = append(out, Range{Base: base, Size: size})
		}
	})
	return out
}

// baseDevice implements the storage and bookkeeping shared by all device
// models.
type baseDevice struct {
	name       string
	capacity   units.Size
	persistent bool
	profile    Profile
	store      *sparseStore
	stats      Stats
}

func newBaseDevice(name string, capacity units.Size, persistent bool, profile Profile) *baseDevice {
	d := &baseDevice{
		name:       name,
		capacity:   capacity,
		persistent: persistent,
		profile:    profile,
		store:      newSparseStore(capacity),
	}
	d.stats.store = d.store
	return d
}

// Committed implements RangeLister: the materialised (ever-written)
// ranges of the sparse store.
func (d *baseDevice) Committed() []Range { return d.store.committed() }

func (d *baseDevice) Name() string         { return d.name }
func (d *baseDevice) Capacity() units.Size { return d.capacity }
func (d *baseDevice) Persistent() bool     { return d.persistent }
func (d *baseDevice) Profile() Profile     { return d.profile }
func (d *baseDevice) Stats() *Stats        { return &d.stats }

func (d *baseDevice) ReadAt(p []byte, off int64) error {
	if !d.store.check(off, len(p)) {
		return &AddrError{Device: d.name, Off: off, Len: len(p), Cap: d.capacity}
	}
	d.store.readAt(p, off, &d.stats)
	d.stats.TouchHeat(off, len(p))
	return nil
}

func (d *baseDevice) WriteAt(p []byte, off int64) error {
	if !d.store.check(off, len(p)) {
		return &AddrError{Device: d.name, Off: off, Len: len(p), Cap: d.capacity}
	}
	d.store.writeAt(p, off, &d.stats)
	d.stats.TouchHeat(off, len(p))
	return nil
}

func (d *baseDevice) PowerCycle() {
	if !d.persistent {
		d.store.drop()
	}
}
