package telemetry

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// The flit flight recorder: a fixed-size ring of wire-level records fed
// from a port's flit trace slot. Under load the feed is sampled (the
// port decides which transactions to tap, so the recorder itself never
// adds per-flit cost to untapped traffic); CRC-failed flits and
// back-invalidate snoops are recorded unconditionally. When RAS walks a
// device into Degraded or Evacuating, it dumps the ring — so every
// health event carries the wire history that preceded it, the way a
// real appliance's crash cart would.

// FlitRecord is one recorded wire event. The fields are a decoded-
// without-validating view of the flit header: cheap to fill on the hot
// path, rich enough to reconstruct what was on the wire.
type FlitRecord struct {
	// Seq is the recorder-global sequence number (records survive ring
	// wraparound in order).
	Seq uint64
	// When is nanoseconds since the recorder started.
	When int64
	// Kind is the wire kind byte (request/response/data/BISnp/BIRsp —
	// see the cxl flit header).
	Kind uint8
	// Op is the opcode byte for request-shaped kinds.
	Op uint8
	// Err marks a flit that failed its CRC at the receiver: the link
	// retried (or gave up on) this exact wire image.
	Err bool
	// Tag is the transaction tag.
	Tag uint16
	// Addr is the address (or data-beat sequence) word.
	Addr uint64
}

func (r FlitRecord) String() string {
	flag := ""
	if r.Err {
		flag = " CRC-FAIL"
	}
	return fmt.Sprintf("#%d +%dns kind=%d op=%d tag=%d addr=%#x%s",
		r.Seq, r.When, r.Kind, r.Op, r.Tag, r.Addr, flag)
}

// frSlot is one ring slot: a claim word (0 free, 1 busy) arbitrating
// writers that lapped into each other and the Dump reader, plus the
// record. full reports whether the slot has ever been written.
type frSlot struct {
	claim atomic.Uint32
	full  atomic.Uint32
	rec   FlitRecord
}

// FlightRecorder is a fixed-size, concurrency-safe ring of FlitRecords.
// Writers claim positions with one atomic add and publish under a
// per-slot claim word; with the ring orders of magnitude deeper than
// the writer count, the claim CAS never spins in practice. Dump is the
// cold path and takes each slot's claim briefly while copying.
type FlightRecorder struct {
	start time.Time
	mask  uint64
	seq   atomic.Uint64
	_     [7]uint64
	slots []frSlot
}

// DefaultRecorderSlots is the default ring depth: enough wire history
// to cover the retry storms the RAS thresholds trip on.
const DefaultRecorderSlots = 1024

// NewFlightRecorder builds a recorder with the given ring depth
// (rounded up to a power of two; 0 takes DefaultRecorderSlots).
func NewFlightRecorder(slots int) *FlightRecorder {
	if slots <= 0 {
		slots = DefaultRecorderSlots
	}
	n := 1
	for n < slots {
		n <<= 1
	}
	return &FlightRecorder{start: time.Now(), mask: uint64(n - 1), slots: make([]frSlot, n)}
}

// Record appends one record, stamping Seq and When. Zero allocations;
// safe for any number of concurrent writers.
func (fr *FlightRecorder) Record(rec FlitRecord) {
	pos := fr.seq.Add(1) - 1
	slot := &fr.slots[pos&fr.mask]
	for !slot.claim.CompareAndSwap(0, 1) {
		runtime.Gosched()
	}
	rec.Seq = pos
	rec.When = int64(time.Since(fr.start))
	slot.rec = rec
	slot.full.Store(1)
	slot.claim.Store(0)
}

// Recorded reports how many records have ever been appended (≥ the ring
// depth means wraparound has discarded the oldest).
func (fr *FlightRecorder) Recorded() uint64 { return fr.seq.Load() }

// Dump copies out the ring's live records in sequence order — the wire
// history, oldest first. Safe to call while writers are appending; each
// slot is copied under its claim word, so no record is ever torn.
func (fr *FlightRecorder) Dump() []FlitRecord {
	out := make([]FlitRecord, 0, len(fr.slots))
	for i := range fr.slots {
		slot := &fr.slots[i]
		for !slot.claim.CompareAndSwap(0, 1) {
			runtime.Gosched()
		}
		if slot.full.Load() != 0 {
			out = append(out, slot.rec)
		}
		slot.claim.Store(0)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
