package pmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestTxCommitDurable(t *testing.T) {
	p, r := createPool(t)
	oid, err := p.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := p.View(oid, 64)
	copy(v, "old-value")
	if err := p.Persist(oid, 64); err != nil {
		t.Fatal(err)
	}

	tx, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.AddRange(oid, 0, 64); err != nil {
		t.Fatal(err)
	}
	copy(v, "new-value")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	p.SimulateCrash()
	p2, err := Open(r, "stream-arrays")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := p2.View(oid, 64)
	if string(got[:9]) != "new-value" {
		t.Errorf("after commit+crash = %q, want new-value", got[:9])
	}
}

func TestTxCrashBeforeCommitRollsBack(t *testing.T) {
	p, r := createPool(t)
	oid, err := p.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := p.View(oid, 64)
	copy(v, "old-value")
	if err := p.Persist(oid, 64); err != nil {
		t.Fatal(err)
	}

	tx, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.AddRange(oid, 0, 64); err != nil {
		t.Fatal(err)
	}
	copy(v, "torn-write")
	// Even persist the torn data — recovery must still undo it.
	if err := p.Persist(oid, 64); err != nil {
		t.Fatal(err)
	}
	p.SimulateCrash() // no commit

	p2, err := Open(r, "stream-arrays")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := p2.View(oid, 64)
	if string(got[:9]) != "old-value" {
		t.Errorf("after crash without commit = %q, want old-value (rollback)", got[:9])
	}
}

func TestTxAbortRestoresViewAndMedia(t *testing.T) {
	p, _ := createPool(t)
	oid, err := p.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := p.View(oid, 64)
	copy(v, "original")
	if err := p.Persist(oid, 64); err != nil {
		t.Fatal(err)
	}
	tx, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.AddRange(oid, 0, 8); err != nil {
		t.Fatal(err)
	}
	copy(v, "mutated!")
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	// The view itself is restored, not only the media.
	if string(v[:8]) != "original" {
		t.Errorf("view after abort = %q", v[:8])
	}
	if p.Stats().TxAborts.Load() != 1 {
		t.Error("abort not counted")
	}
}

func TestTxLanesAndFinishedTxRejected(t *testing.T) {
	p, _ := createPool(t)
	tx, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// Up to TxLanes transactions may be in flight concurrently, each on
	// its own undo-log lane.
	others := make([]*Tx, 0, TxLanes-1)
	for i := 1; i < TxLanes; i++ {
		tx2, err := p.Begin()
		if err != nil {
			t.Fatalf("concurrent transaction %d rejected: %v", i, err)
		}
		others = append(others, tx2)
	}
	seen := map[uint64]bool{tx.lane.idx: true}
	for _, tx2 := range others {
		if seen[tx2.lane.idx] {
			t.Fatalf("lane %d handed out twice", tx2.lane.idx)
		}
		seen[tx2.lane.idx] = true
	}
	for _, tx2 := range others {
		if err := tx2.Abort(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Finished transactions reject further use.
	if err := tx.Commit(); err == nil {
		t.Error("double commit accepted")
	}
	if err := tx.Abort(); err == nil {
		t.Error("abort after commit accepted")
	}
	oid, _ := p.Alloc(8)
	if err := tx.AddRange(oid, 0, 8); err == nil {
		t.Error("AddRange after commit accepted")
	}
	// A new transaction can start now.
	tx2, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
}

func TestTxAddRangeValidation(t *testing.T) {
	p, _ := createPool(t)
	oid, _ := p.Alloc(64)
	tx, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.AddRange(oid, 0, 0); err == nil {
		t.Error("zero-length range accepted")
	}
	if err := tx.AddRange(OID{PoolID: 42, Off: oid.Off}, 0, 8); err == nil {
		t.Error("foreign OID accepted")
	}
	if err := tx.AddRange(oid, 0, uint64(testPoolSize)); err == nil {
		t.Error("out-of-heap range accepted")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestTxLogFull(t *testing.T) {
	p, _ := createPool(t)
	oid, err := p.Alloc(DefaultLogSize)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// One giant range exceeding the log must be rejected cleanly.
	if err := tx.AddRange(oid, 0, DefaultLogSize); err == nil {
		t.Error("log overflow accepted")
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseWithOpenTxRejected(t *testing.T) {
	p, _ := createPool(t)
	tx, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err == nil {
		t.Error("close with open transaction accepted")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateHelper(t *testing.T) {
	p, r := createPool(t)
	oid, err := p.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Update(oid, 8, 8, func(b []byte) error {
		binary.LittleEndian.PutUint64(b, 0xFEEDFACE)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	p.SimulateCrash()
	p2, err := Open(r, "stream-arrays")
	if err != nil {
		t.Fatal(err)
	}
	got, err := p2.GetUint64(oid, 8)
	if err != nil || got != 0xFEEDFACE {
		t.Errorf("after Update+crash = %#x, %v", got, err)
	}
	// fn error aborts cleanly and leaves the pool usable.
	sentinel := &TxError{Op: "user", Why: "boom"}
	if err := p2.Update(oid, 8, 8, func(b []byte) error { return sentinel }); err != sentinel {
		t.Errorf("Update error = %v, want sentinel", err)
	}
	if got, _ := p2.GetUint64(oid, 8); got != 0xFEEDFACE {
		t.Error("aborted Update changed data")
	}
	if _, err := p2.Begin(); err != nil {
		t.Errorf("pool unusable after aborted Update: %v", err)
	}
}

func TestTypedAccessors(t *testing.T) {
	p, r := createPool(t)
	oid, fs, err := p.AllocFloat64s(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 100 {
		t.Fatalf("len = %d", len(fs))
	}
	for i := range fs {
		fs[i] = float64(i) * 1.5
	}
	if err := p.PersistFloat64s(oid, 0, 100); err != nil {
		t.Fatal(err)
	}
	p.SimulateCrash()
	p2, err := Open(r, "stream-arrays")
	if err != nil {
		t.Fatal(err)
	}
	fs2, err := p2.Float64s(oid, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range fs2 {
		if v != float64(i)*1.5 {
			t.Fatalf("fs[%d] = %v, want %v", i, v, float64(i)*1.5)
		}
	}
	// Validation.
	if _, err := p2.Float64s(oid, 0); err == nil {
		t.Error("zero-length Float64s accepted")
	}
	if _, _, err := p2.AllocFloat64s(-1); err == nil {
		t.Error("negative AllocFloat64s accepted")
	}
	if err := p2.PersistFloat64s(oid, 10, 5); err == nil {
		t.Error("inverted range accepted")
	}
	if err := p2.PersistFloat64s(oid, 5, 5); err != nil {
		t.Error("empty range should be a no-op")
	}
	// Scalar helpers.
	if err := p2.SetFloat64(oid, 0, 3.25); err != nil {
		t.Fatal(err)
	}
	got, err := p2.GetFloat64(oid, 0)
	if err != nil || got != 3.25 {
		t.Errorf("GetFloat64 = %v, %v", got, err)
	}
}

// Property: whatever write count the power fails at, reopening the pool
// shows either the complete old value or the complete new value of a
// transactionally updated range — never a mixture. This sweeps the
// crash point across every media write the protocol performs.
func TestTxAtomicityAcrossAllCrashPoints(t *testing.T) {
	old := bytes.Repeat([]byte{0xAA}, 64)
	new_ := bytes.Repeat([]byte{0x55}, 64)

	// First, count the total writes of a full run.
	total := func() int {
		r := newMemRegion(testPoolSize, true)
		p, err := Create(r, "atomic")
		if err != nil {
			t.Fatal(err)
		}
		oid, err := p.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		v, _ := p.View(oid, 64)
		copy(v, old)
		if err := p.Persist(oid, 64); err != nil {
			t.Fatal(err)
		}
		start := r.writes
		tx, err := p.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.AddRange(oid, 0, 64); err != nil {
			t.Fatal(err)
		}
		copy(v, new_)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		return r.writes - start
	}()
	if total < 4 {
		t.Fatalf("transaction performed only %d writes; protocol too thin to test", total)
	}

	for cut := 0; cut <= total; cut++ {
		r := newMemRegion(testPoolSize, true)
		p, err := Create(r, "atomic")
		if err != nil {
			t.Fatal(err)
		}
		oid, err := p.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		v, _ := p.View(oid, 64)
		copy(v, old)
		if err := p.Persist(oid, 64); err != nil {
			t.Fatal(err)
		}
		r.cutoff = r.writes + cut // power fails after `cut` more writes
		tx, err := p.Begin()
		if err == nil {
			if err := tx.AddRange(oid, 0, 64); err == nil {
				copy(v, new_)
				_ = tx.Commit() // may "succeed" while writes are dropped
			}
		}
		// Power is restored: lift the cutoff and recover.
		r.cutoff = -1
		p.SimulateCrash()
		p2, err := Open(r, "atomic")
		if err != nil {
			t.Fatalf("cut=%d: recovery failed: %v", cut, err)
		}
		got, err := p2.View(oid, 64)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if !bytes.Equal(got, old) && !bytes.Equal(got, new_) {
			t.Fatalf("cut=%d: torn state %x", cut, got[:8])
		}
	}
}

// Property: random transactional updates on random offsets maintain
// atomicity under immediate-crash recovery.
func TestTxAtomicityProperty(t *testing.T) {
	f := func(seedByte uint8, commit bool) bool {
		r := newMemRegion(1<<20, true)
		p, err := Create(r, "prop")
		if err != nil {
			return false
		}
		oid, err := p.Alloc(4096)
		if err != nil {
			return false
		}
		v, _ := p.View(oid, 4096)
		for i := range v {
			v[i] = seedByte
		}
		if err := p.Persist(oid, 4096); err != nil {
			return false
		}
		tx, err := p.Begin()
		if err != nil {
			return false
		}
		off := uint64(seedByte) * 7 % 3000
		if err := tx.AddRange(oid, off, 512); err != nil {
			return false
		}
		for i := off; i < off+512; i++ {
			v[i] = ^seedByte
		}
		if commit {
			if err := tx.Commit(); err != nil {
				return false
			}
		}
		p.SimulateCrash()
		p2, err := Open(r, "prop")
		if err != nil {
			return false
		}
		got, err := p2.View(oid, 4096)
		if err != nil {
			return false
		}
		want := seedByte
		if commit {
			want = ^seedByte
		}
		for i := off; i < off+512; i++ {
			if got[i] != want {
				return false
			}
		}
		// Bytes outside the range are untouched.
		for i := uint64(0); i < off; i++ {
			if got[i] != seedByte {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// countingRegion wraps a Region and counts bytes read through it. The
// counter is atomic: regions are shared by concurrent transactions, so
// a plain int64 here would trip the race job.
type countingRegion struct {
	inner     Region
	bytesRead atomic.Int64
}

func (c *countingRegion) ReadAt(p []byte, off int64) error {
	c.bytesRead.Add(int64(len(p)))
	return c.inner.ReadAt(p, off)
}
func (c *countingRegion) WriteAt(p []byte, off int64) error { return c.inner.WriteAt(p, off) }
func (c *countingRegion) Size() int64                       { return c.inner.Size() }
func (c *countingRegion) Persistent() bool                  { return c.inner.Persistent() }

// TestOpenSingleMediaScan guards the Open fast path: even when undo-log
// recovery runs, the media is scanned exactly once (header probe plus
// one full view load) — the log is recovered from the in-memory view,
// not from a second media pass.
func TestOpenSingleMediaScan(t *testing.T) {
	p, r := createPool(t)
	oid, err := p.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := p.View(oid, 64)
	copy(v, "old-value")
	if err := p.Persist(oid, 64); err != nil {
		t.Fatal(err)
	}
	tx, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.AddRange(oid, 0, 64); err != nil {
		t.Fatal(err)
	}
	copy(v, "torn-data")
	if err := p.Persist(oid, 64); err != nil {
		t.Fatal(err)
	}
	p.SimulateCrash()

	cr := &countingRegion{inner: r}
	p2, err := Open(cr, "stream-arrays")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := p2.View(oid, 64)
	if string(got[:9]) != "old-value" {
		t.Errorf("recovery result = %q, want old-value", got[:9])
	}
	if max := int64(testPoolSize) + headerSize; cr.bytesRead.Load() > max {
		t.Errorf("Open read %d bytes, want <= %d (single media scan)", cr.bytesRead.Load(), max)
	}
}

// TestStaleTxAfterLaneReissue: a *Tx kept after Commit fails every
// method with a *TxError, even once its lane carries the next
// transaction, and that transaction commits intact. Each Begin returns
// a fresh Tx over the lane's shared buffers, so a stale one can never
// act on the lane's next transaction.
func TestStaleTxAfterLaneReissue(t *testing.T) {
	p, r := createPool(t)
	oid, err := p.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := stale.AddRange(oid, 0, 64); err != nil {
		t.Fatal(err)
	}
	if err := stale.Commit(); err != nil {
		t.Fatal(err)
	}
	var live *Tx
	var held []*Tx
	for live == nil {
		tx, err := p.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if tx.lane == stale.lane {
			live = tx
		} else {
			held = append(held, tx)
		}
	}
	for _, tx := range held {
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
	}
	if err := live.AddRange(oid, 0, 64); err != nil {
		t.Fatal(err)
	}
	v, _ := p.View(oid, 64)
	copy(v, bytes.Repeat([]byte{0x5A}, 64))

	var txErr *TxError
	for name, call := range map[string]func() error{
		"AddRange": func() error { return stale.AddRange(oid, 0, 8) },
		"Commit":   stale.Commit,
		"Abort":    stale.Abort,
	} {
		if err := call(); !errors.As(err, &txErr) {
			t.Errorf("stale %s = %v, want a *TxError", name, err)
		}
	}
	// The live transaction's lane is still active with its one entry.
	hdr := r.data[p.laneBase(live.lane.idx):]
	if state, count := binary.LittleEndian.Uint32(hdr[logState:]), binary.LittleEndian.Uint32(hdr[logCount:]); state != logActive || count != 1 {
		t.Fatalf("live lane header = (state %d, count %d) after stale calls, want (%d, 1)", state, count, logActive)
	}
	if err := live.Commit(); err != nil {
		t.Fatal(err)
	}
	p.SimulateCrash()
	p2, err := Open(r, "stream-arrays")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := p2.View(oid, 64); !bytes.Equal(got, bytes.Repeat([]byte{0x5A}, 64)) {
		t.Errorf("after the live commit and a crash the object reads %x, want 5a...", got[:8])
	}
}

// TestEntryPadZeroAfterLargerEntry: a lane's entry buffer is reused,
// by Abort's replay as well as by AddRange, so every entry must still
// reach the media with its header pad word and data pad bytes zero. The
// replay leaves snapshot bytes where the next entry's header pad goes,
// and a 5-byte AddRange after a 64-byte one on the same lane finds
// snapshot bytes where its data pad goes.
func TestEntryPadZeroAfterLargerEntry(t *testing.T) {
	p, r := createPool(t)
	oid, err := p.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := p.View(oid, 128)
	for i := range v {
		v[i] = 0xEE
	}
	if err := p.Persist(oid, 128); err != nil {
		t.Fatal(err)
	}
	aborted, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := aborted.AddRange(oid, 0, 64); err != nil {
		t.Fatal(err)
	}
	if err := aborted.Abort(); err != nil {
		t.Fatal(err)
	}
	var tx *Tx
	var held []*Tx
	for tx == nil {
		next, err := p.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if next.lane == aborted.lane {
			tx = next
		} else {
			held = append(held, next)
		}
	}
	for _, h := range held {
		if err := h.Abort(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.AddRange(oid, 0, 64); err != nil {
		t.Fatal(err)
	}
	if err := tx.AddRange(oid, 64, 5); err != nil {
		t.Fatal(err)
	}
	first := p.laneBase(tx.lane.idx) + laneHeaderSize
	second := first + entryHeaderSize + 64
	if pad := r.data[first+20 : first+entryHeaderSize]; !bytes.Equal(pad, make([]byte, 4)) {
		t.Errorf("first entry's header pad word = %x, want zero", pad)
	}
	entry := r.data[second : second+entryHeaderSize+8]
	if n := binary.LittleEndian.Uint64(entry[8:]); n != 5 {
		t.Fatalf("second entry length = %d, want 5", n)
	}
	if pad := entry[20:entryHeaderSize]; !bytes.Equal(pad, make([]byte, 4)) {
		t.Errorf("second entry's header pad word = %x, want zero", pad)
	}
	if pad := entry[entryHeaderSize+5:]; !bytes.Equal(pad, make([]byte, 3)) {
		t.Errorf("second entry's data pad bytes = %x, want zero", pad)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRejectsOversizedUndoEntry: recovery rejects an undo entry
// whose length exceeds the lane, or whose target lies outside the heap,
// with the lane's *TxError: the padded length may not wrap and the
// entry's slice panic, and no snapshot may land on the pool header or
// wrap past the region's end. The pool header stays intact.
func TestOpenRejectsOversizedUndoEntry(t *testing.T) {
	for _, c := range []struct {
		name string
		word uint64 // entry header word to overwrite: 0 off, 8 len
		val  uint64
	}{
		{"len beyond lane", 8, ^uint64(0)},
		{"off in pool header", 0, 8},
		{"off near wrap", 0, ^uint64(0) - 7},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, r := createPool(t)
			oid, err := p.Alloc(64)
			if err != nil {
				t.Fatal(err)
			}
			tx, err := p.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.AddRange(oid, 0, 64); err != nil {
				t.Fatal(err)
			}
			lane := tx.lane.idx
			p.SimulateCrash()
			binary.LittleEndian.PutUint64(r.data[p.laneBase(lane)+laneHeaderSize+c.word:], c.val)
			hdr := bytes.Clone(r.data[:headerSize])
			var txErr *TxError
			if _, err := Open(r, "stream-arrays"); !errors.As(err, &txErr) {
				t.Errorf("Open over a malformed undo entry = %v, want a *TxError", err)
			}
			if !bytes.Equal(r.data[:headerSize], hdr) {
				t.Error("recovery wrote over the pool header")
			}
		})
	}
}
