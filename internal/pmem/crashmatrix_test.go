package pmem

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// Crash-recovery matrix: a deterministic workload opens a transaction
// on EVERY undo-log lane, interleaves their log appends, and commits
// them one by one; the matrix then replays that exact workload with
// power failing after every single media write — every log append, log
// count bump, data persist and commit-point write across all TxLanes
// lanes is a crash point. This supersedes the old single-point
// multi-lane tests (one hand-picked crash before any commit / between
// two commits): every window those tests sampled is now swept
// exhaustively, lane by lane.
//
// Invariants asserted after each recovery:
//   - atomicity: every object reads entirely old or entirely new —
//     never a mixture, whatever lane its transaction was on;
//   - determinism: a transaction whose commit completed before the cut
//     MUST read new, one whose commit had not begun MUST read old;
//   - allocator consistency: the heap walk (Check) succeeds and its
//     block/byte accounting matches the no-crash control run — the
//     crash window cannot leak or corrupt allocator state;
//   - liveness: the recovered pool still allocates, frees and commits.

const (
	matrixObjSize = 128
	matrixOld     = 0xA5
)

// matrixWorkload drives the deterministic multi-lane transaction
// pattern against p. Returns the per-transaction media-write counts:
// start[i] = r.writes before tx i's Commit is invoked, done[i] =
// r.writes after it returned.
func matrixWorkload(t *testing.T, p *Pool, r *memRegion, oids []OID) (start, done []int) {
	t.Helper()
	txs := make([]*Tx, TxLanes)
	for i := range txs {
		var err error
		if txs[i], err = p.Begin(); err != nil {
			t.Fatal(err)
		}
	}
	// Interleave the log appends: lane 0's first entry, lane 1's first
	// entry, ..., lane 0's second entry, ... — so a cut lands between
	// appends of DIFFERENT lanes, not only between transactions.
	for half := 0; half < 2; half++ {
		for i, tx := range txs {
			if err := tx.AddRange(oids[i], uint64(half)*64, 64); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := range txs {
		v, err := p.View(oids[i], matrixObjSize)
		if err != nil {
			t.Fatal(err)
		}
		for j := range v {
			v[j] = byte(0x10 + i) // new pattern, distinct per lane
		}
	}
	start = make([]int, TxLanes)
	done = make([]int, TxLanes)
	for i, tx := range txs {
		start[i] = r.writes
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		done[i] = r.writes
	}
	return start, done
}

// matrixSetup creates a pool with TxLanes seeded objects.
func matrixSetup(t *testing.T) (*Pool, *memRegion, []OID) {
	t.Helper()
	r := newMemRegion(testPoolSize, true)
	p, err := Create(r, "matrix")
	if err != nil {
		t.Fatal(err)
	}
	oids := make([]OID, TxLanes)
	for i := range oids {
		if oids[i], err = p.Alloc(matrixObjSize); err != nil {
			t.Fatal(err)
		}
		v, err := p.View(oids[i], matrixObjSize)
		if err != nil {
			t.Fatal(err)
		}
		for j := range v {
			v[j] = matrixOld
		}
		if err := p.Persist(oids[i], matrixObjSize); err != nil {
			t.Fatal(err)
		}
	}
	return p, r, oids
}

func TestCrashRecoveryMatrixAllLanes(t *testing.T) {
	// Control run: no crash. Records the workload's total write count,
	// the per-commit write boundaries and the healthy heap accounting.
	ctrlPool, ctrlRegion, ctrlOids := matrixSetup(t)
	preTxWrites := ctrlRegion.writes
	start, done := matrixWorkload(t, ctrlPool, ctrlRegion, ctrlOids)
	total := ctrlRegion.writes - preTxWrites
	if total < 4*TxLanes {
		t.Fatalf("workload performed only %d writes across %d lanes; protocol too thin to sweep", total, TxLanes)
	}
	ctrlReport, err := ctrlPool.Check()
	if err != nil {
		t.Fatal(err)
	}
	for i := range start {
		start[i] -= preTxWrites
		done[i] -= preTxWrites
	}

	old := bytes.Repeat([]byte{matrixOld}, matrixObjSize)
	for cut := 0; cut <= total; cut++ {
		p, r, oids := matrixSetup(t)
		r.cutoff = r.writes + cut
		runMatrixUntilPowerFails(p, oids)
		// Power restored.
		r.cutoff = -1
		p.SimulateCrash()

		p2, err := Open(r, "matrix")
		if err != nil {
			t.Fatalf("cut=%d: recovery failed: %v", cut, err)
		}
		for i, oid := range oids {
			got := make([]byte, matrixObjSize)
			if err := r.ReadAt(got, int64(oid.Off)); err != nil {
				t.Fatal(err)
			}
			new_ := bytes.Repeat([]byte{byte(0x10 + i)}, matrixObjSize)
			isOld, isNew := bytes.Equal(got, old), bytes.Equal(got, new_)
			if !isOld && !isNew {
				t.Fatalf("cut=%d lane %d: torn object %x", cut, i, got[:8])
			}
			if cut >= done[i] && !isNew {
				t.Errorf("cut=%d lane %d: commit completed at write %d but object rolled back", cut, i, done[i])
			}
			if cut <= start[i] && !isOld {
				t.Errorf("cut=%d lane %d: commit began at write %d but object moved forward", cut, i, start[i])
			}
		}
		// Allocator invariants: the walk succeeds and matches the
		// control accounting exactly — the crash could not have leaked
		// or merged blocks (allocations all predate the tx phase).
		rep, err := p2.Check()
		if err != nil {
			t.Fatalf("cut=%d: heap corrupt after recovery: %v", cut, err)
		}
		if rep != ctrlReport {
			t.Errorf("cut=%d: heap accounting %+v, want %+v", cut, rep, ctrlReport)
		}
		// Liveness: the recovered pool still serves the full alloc/tx
		// cycle.
		oid, err := p2.Alloc(64)
		if err != nil {
			t.Fatalf("cut=%d: alloc after recovery: %v", cut, err)
		}
		if err := p2.Update(oid, 0, 8, func(b []byte) error { b[0] = 1; return nil }); err != nil {
			t.Fatalf("cut=%d: tx after recovery: %v", cut, err)
		}
		if err := p2.Free(oid); err != nil {
			t.Fatalf("cut=%d: free after recovery: %v", cut, err)
		}
	}
}

// runMatrixUntilPowerFails replays the deterministic workload,
// tolerating the errors that a power cut mid-protocol surfaces (writes
// are silently dropped by the region, so most of the time everything
// "succeeds" — the damage is only visible at recovery).
func runMatrixUntilPowerFails(p *Pool, oids []OID) {
	txs := make([]*Tx, 0, TxLanes)
	for range oids {
		tx, err := p.Begin()
		if err != nil {
			return
		}
		txs = append(txs, tx)
	}
	for half := 0; half < 2; half++ {
		for i, tx := range txs {
			if err := tx.AddRange(oids[i], uint64(half)*64, 64); err != nil {
				return
			}
		}
	}
	for i := range txs {
		v, err := p.View(oids[i], matrixObjSize)
		if err != nil {
			return
		}
		for j := range v {
			v[j] = byte(0x10 + i)
		}
	}
	for _, tx := range txs {
		_ = tx.Commit()
	}
}

// TestCrashMatrixLaneIndependence is the matrix's spot check in prose
// form: with the cut placed exactly between two commits, the committed
// lane must read new while every uncommitted lane reads old — the
// boundary case the old hand-written tests covered, now derived from
// the recorded commit boundaries instead of guessed.
func TestCrashMatrixLaneIndependence(t *testing.T) {
	ctrlPool, ctrlRegion, ctrlOids := matrixSetup(t)
	pre := ctrlRegion.writes
	_, done := matrixWorkload(t, ctrlPool, ctrlRegion, ctrlOids)
	cut := done[TxLanes/2] - pre // just after the middle lane's commit

	p, r, oids := matrixSetup(t)
	r.cutoff = r.writes + cut
	runMatrixUntilPowerFails(p, oids)
	r.cutoff = -1
	p.SimulateCrash()
	p2, err := Open(r, "matrix")
	if err != nil {
		t.Fatal(err)
	}
	for i, oid := range oids {
		got := make([]byte, matrixObjSize)
		if err := r.ReadAt(got, int64(oid.Off)); err != nil {
			t.Fatal(err)
		}
		want := byte(matrixOld)
		if i <= TxLanes/2 {
			want = byte(0x10 + i)
		}
		if got[0] != want || got[matrixObjSize-1] != want {
			t.Errorf("lane %d after boundary crash: %#x, want %#x", i, got[0], want)
		}
	}
	if _, err := p2.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestTornCommitThenTornFirstEntry cuts power twice on one lane: first
// at every media write of a Commit, then, after recovery, at every media
// write of the next transaction's first AddRange on the same lane and
// range: its entry, then the header that marks the lane active with one
// entry. Whatever the first recovery decided (rolled back or
// committed), the torn AddRange must not change it. The lane still
// holds the finished transaction's entry for the same range, with a
// valid checksum, so a header that reached the media before the new
// entry would have the second recovery replay that stale snapshot over
// committed data.
func TestTornCommitThenTornFirstEntry(t *testing.T) {
	const size = 64
	old := bytes.Repeat([]byte{0x0A}, size)
	new_ := bytes.Repeat([]byte{0x0B}, size)
	// setup persists the object as old and opens a transaction that
	// snapshots it and rewrites it as new in the view.
	setup := func() (*Pool, *memRegion, OID, *Tx) {
		r := newMemRegion(testPoolSize, true)
		p, err := Create(r, "torn")
		if err != nil {
			t.Fatal(err)
		}
		oid, err := p.Alloc(size)
		if err != nil {
			t.Fatal(err)
		}
		v, err := p.View(oid, size)
		if err != nil {
			t.Fatal(err)
		}
		copy(v, old)
		if err := p.Persist(oid, size); err != nil {
			t.Fatal(err)
		}
		tx, err := p.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.AddRange(oid, 0, size); err != nil {
			t.Fatal(err)
		}
		copy(v, new_)
		return p, r, oid, tx
	}
	reopen := func(r *memRegion) *Pool {
		p, err := Open(r, "torn")
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		return p
	}
	read := func(r *memRegion, oid OID) []byte {
		got := make([]byte, size)
		if err := r.ReadAt(got, int64(oid.Off)); err != nil {
			t.Fatal(err)
		}
		return got
	}
	// begin opens the next transaction, which must take the torn
	// commit's lane.
	begin := func(p *Pool, lane uint64) *Tx {
		tx, err := p.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if tx.lane.idx != lane {
			t.Fatalf("second Begin took lane %d, want the torn commit's lane %d", tx.lane.idx, lane)
		}
		return tx
	}

	// Control run: how many media writes Commit and the next first
	// AddRange make.
	p, r, oid, tx := setup()
	w := r.writes
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	commitWrites := r.writes - w
	tx2 := begin(p, tx.lane.idx)
	w = r.writes
	if err := tx2.AddRange(oid, 0, size); err != nil {
		t.Fatal(err)
	}
	addWrites := r.writes - w
	if addWrites < 2 {
		t.Fatalf("first AddRange made %d media writes; want its entry, then the header", addWrites)
	}

	for c := 0; c <= commitWrites; c++ {
		for a := 0; a <= addWrites; a++ {
			p, r, oid, tx := setup()
			r.cutoff = r.writes + c
			_ = tx.Commit() // the cut drops writes silently; recovery shows the damage
			r.cutoff = -1
			p.SimulateCrash()
			p2 := reopen(r)
			first := read(r, oid)
			if !bytes.Equal(first, old) && !bytes.Equal(first, new_) {
				t.Fatalf("commit cut=%d: torn object %x", c, first[:8])
			}

			tx2 := begin(p2, tx.lane.idx)
			r.cutoff = r.writes + a
			_ = tx2.AddRange(oid, 0, size)
			r.cutoff = -1
			p2.SimulateCrash()
			reopen(r)
			if got := read(r, oid); !bytes.Equal(got, first) {
				t.Errorf("commit cut=%d, first-entry cut=%d: object %#x after first recovery, %#x after a torn first AddRange",
					c, a, first[0], got[0])
			}
		}
	}
}

// TestOpenIdlesActiveLaneWithNoEntries: a lane whose header reads active
// with no entries, over a finished transaction's entries, is what a
// power loss right after Begin left in pools written while Begin still
// marked its lane active. Nothing writes that state now, so this test
// writes it directly: Open must succeed, replay none of the stale
// entries and leave the lane idle.
func TestOpenIdlesActiveLaneWithNoEntries(t *testing.T) {
	r := newMemRegion(testPoolSize, true)
	p, err := Create(r, "stale")
	if err != nil {
		t.Fatal(err)
	}
	oid, err := p.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	// A committed transaction leaves its entry, a snapshot of zeroes,
	// behind the idle header of lane 0, the lowest free lane.
	const lane = 0
	committed := bytes.Repeat([]byte{0x5C}, 64)
	if err := p.Update(oid, 0, 64, func(v []byte) error {
		copy(v, committed)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	base := p.laneBase(lane)
	var entry [entryHeaderSize]byte
	if err := r.ReadAt(entry[:], int64(base+laneHeaderSize)); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(entry[0:]); got != oid.Off {
		t.Fatalf("lane %d's stale entry targets %#x, want the object at %#x", lane, got, oid.Off)
	}
	var hdr [laneHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[logState:], logActive)
	if err := r.WriteAt(hdr[:], int64(base)); err != nil {
		t.Fatal(err)
	}
	p.SimulateCrash()

	p2, err := Open(r, "stale")
	if err != nil {
		t.Fatalf("Open over an active lane with no entries: %v", err)
	}
	got := make([]byte, 64)
	if err := r.ReadAt(got, int64(oid.Off)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, committed) {
		t.Errorf("object % x after recovery, want the committed bytes: a stale entry was replayed", got[:8])
	}
	if err := r.ReadAt(hdr[:], int64(base)); err != nil {
		t.Fatal(err)
	}
	if hdr != [laneHeaderSize]byte{} {
		t.Errorf("lane header % x after recovery, want idle with no entries", hdr)
	}
	if err := p2.Update(oid, 0, 8, func(v []byte) error { v[0] = 1; return nil }); err != nil {
		t.Fatalf("tx after recovery: %v", err)
	}
}
