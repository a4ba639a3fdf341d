package pmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentTxDisjointObjects exercises the multi-lane transaction
// machinery: many goroutines each own one object and run transactional
// updates over it in parallel. Every committed value must be durable on
// media (no lost updates), and the commit counter must account for
// every transaction.
func TestConcurrentTxDisjointObjects(t *testing.T) {
	p, r := createPool(t)
	const (
		workers = 2 * TxLanes // oversubscribe the lanes so Begin blocks
		rounds  = 25
		objSize = 256
	)
	oids := make([]OID, workers)
	for i := range oids {
		var err error
		if oids[i], err = p.Alloc(objSize); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				err := p.Update(oids[w], 0, objSize, func(v []byte) error {
					binary.LittleEndian.PutUint64(v, uint64(w)<<32|uint64(i))
					for j := 8; j < len(v); j++ {
						v[j] = byte(w + i)
					}
					return nil
				})
				if err != nil {
					errs[w] = fmt.Errorf("worker %d round %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Stats().TxCommits.Load(); got != workers*rounds {
		t.Errorf("TxCommits = %d, want %d", got, workers*rounds)
	}
	// Every object's final value must have reached the media, not just
	// the view: read through the region directly.
	for w, oid := range oids {
		buf := make([]byte, objSize)
		if err := r.ReadAt(buf, int64(oid.Off)); err != nil {
			t.Fatal(err)
		}
		want := uint64(w)<<32 | uint64(rounds-1)
		if got := binary.LittleEndian.Uint64(buf); got != want {
			t.Errorf("worker %d: media value %#x, want %#x (lost update)", w, got, want)
		}
		for j := 8; j < objSize; j++ {
			if buf[j] != byte(w+rounds-1) {
				t.Fatalf("worker %d: media byte %d = %#x, want %#x", w, j, buf[j], byte(w+rounds-1))
			}
		}
	}
}

// TestConcurrentAllocFree hammers the allocator from many goroutines;
// the per-pool allocator lock must keep the heap walkable and the
// alloc/free counters exact.
func TestConcurrentAllocFree(t *testing.T) {
	p, _ := createPool(t)
	const workers, rounds = 8, 40
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				oid, err := p.Alloc(64 + uint64(w)*32)
				if err != nil {
					errs[w] = err
					return
				}
				if err := p.Free(oid); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Stats().Allocs.Load(); got != workers*rounds {
		t.Errorf("Allocs = %d, want %d", got, workers*rounds)
	}
	if _, err := p.Check(); err != nil {
		t.Errorf("heap corrupt after concurrent alloc/free: %v", err)
	}
}

// The single-point multi-lane crash tests that used to live here
// (TestMultiLaneCrashRecovery, TestCommittedLaneSurvivesCrashNextToTornLane)
// are superseded by the exhaustive sweep in crashmatrix_test.go, which
// places a crash after EVERY media write of an all-lanes workload and
// derives the committed/uncommitted expectations from recorded commit
// boundaries instead of hand-picking two windows.

// freeLaneCount counts the free lanes: those in the free-lane set and
// those buffered on the hand-off channel.
func freeLaneCount(p *Pool) int { return bits.OnesCount32(p.freeLanes.Load()) + len(p.lanes) }

// TestCrashReleasesLanes guards the lane lease protocol: transactions
// stranded by a crash must hand their lanes back when their
// Commit/Abort fails, or a later Begin would wait forever for a free
// lane.
func TestCrashReleasesLanes(t *testing.T) {
	p, _ := createPool(t)
	txs := make([]*Tx, TxLanes)
	for i := range txs {
		var err error
		if txs[i], err = p.Begin(); err != nil {
			t.Fatal(err)
		}
	}
	p.SimulateCrash()
	for _, tx := range txs {
		if err := tx.Commit(); err == nil {
			t.Fatal("commit on crashed pool succeeded")
		}
	}
	if got := freeLaneCount(p); got != TxLanes {
		t.Errorf("free lanes after crash = %d, want %d (lane lease leaked)", got, TxLanes)
	}
	if got := p.activeTx(); got != 0 {
		t.Errorf("activeTx after crash = %d, want 0", got)
	}
}

// failingRegion wraps a Region and starts failing writes on demand —
// an I/O fault mid-operation, not a power loss.
type failingRegion struct {
	Region
	fail atomic.Bool
}

func (r *failingRegion) WriteAt(p []byte, off int64) error {
	if r.fail.Load() {
		return errors.New("media I/O failure")
	}
	return r.Region.WriteAt(p, off)
}

// TestAbortIOFailureRetiresLane: when Abort itself hits an I/O error,
// the lane's undo entries are the only copy of the pre-transaction
// state — the lane must be retired (never reissued), the transaction
// must count as finished, and the pool must keep working on the
// remaining lanes.
func TestAbortIOFailureRetiresLane(t *testing.T) {
	inner := newMemRegion(testPoolSize, true)
	fr := &failingRegion{Region: inner}
	p, err := Create(fr, "stream-arrays")
	if err != nil {
		t.Fatal(err)
	}
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
	fr.fail.Store(true)
	if err := tx.Abort(); err == nil {
		t.Fatal("abort with failing media succeeded")
	}
	fr.fail.Store(false)
	if !tx.done {
		t.Error("failed abort left the transaction open")
	}
	if got := p.lanesLost.Load(); got != 1 {
		t.Errorf("lanesLost = %d, want 1", got)
	}
	if got := freeLaneCount(p); got != TxLanes-1 {
		t.Errorf("free lanes = %d, want %d (retired lane must not recirculate)", got, TxLanes-1)
	}
	if got := p.activeTx(); got != 0 {
		t.Errorf("activeTx = %d, want 0", got)
	}
	// The pool still serves transactions on the remaining lanes.
	if err := p.Update(oid, 0, 64, func(v []byte) error { v[0] = 7; return nil }); err != nil {
		t.Fatal(err)
	}
}

// blockedClaims counts the goroutines blocked waiting for a lane.
func blockedClaims() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		header, _, _ := strings.Cut(g, "\n")
		if strings.Contains(header, "[chan receive") && strings.Contains(g, ".(*Pool).claimLane(") {
			n++
		}
	}
	return n
}

// waitForLaneWaiters fails the test unless n goroutines wait for a
// lane within 2 s.
func waitForLaneWaiters(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); blockedClaims() < n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines wait for a lane, want %d", blockedClaims(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// leaseAllLanes begins TxLanes transactions, each with one 64-byte
// range of oid added.
func leaseAllLanes(t *testing.T, p *Pool, oid OID) []*Tx {
	t.Helper()
	txs := make([]*Tx, TxLanes)
	for i := range txs {
		var err error
		if txs[i], err = p.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := txs[i].AddRange(oid, uint64(i)*64, 64); err != nil {
			t.Fatal(err)
		}
	}
	return txs
}

// TestUpdateWaitsForReleasedLane: with every lane leased, an Update
// waits, holding no pool lock, and finishes once one lease is
// committed.
func TestUpdateWaitsForReleasedLane(t *testing.T) {
	p, r := createPool(t)
	oid, err := p.Alloc((TxLanes + 1) * 64)
	if err != nil {
		t.Fatal(err)
	}
	txs := leaseAllLanes(t, p, oid)
	done := make(chan error, 1)
	go func() {
		done <- p.Update(oid, TxLanes*64, 64, func(v []byte) error { v[0] = 9; return nil })
	}()
	select {
	case err := <-done:
		t.Fatalf("Update returned with every lane leased: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	waitForLaneWaiters(t, 1)
	// The waiter holds no pool lock: Close, which takes it for write,
	// returns, refusing since transactions are in flight.
	closed := make(chan error, 1)
	go func() { closed <- p.Close() }()
	select {
	case err := <-closed:
		if err == nil {
			t.Fatal("Close with every lane leased succeeded")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked behind the waiting Update")
	}
	if err := txs[0].Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Update still waiting 2 s after a lane was released")
	}
	for _, tx := range txs[1:] {
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if got := freeLaneCount(p); got != TxLanes {
		t.Errorf("free lanes = %d, want %d", got, TxLanes)
	}
	if got := p.activeTx(); got != 0 {
		t.Errorf("activeTx = %d, want 0", got)
	}
	if got := p.laneWaiters.Load(); got != 0 {
		t.Errorf("lane waiters = %d, want 0", got)
	}
	b := make([]byte, 1)
	if err := r.ReadAt(b, int64(oid.Off+TxLanes*64)); err != nil || b[0] != 9 {
		t.Errorf("waiting Update's byte on media = %d (%v), want 9", b[0], err)
	}
}

// TestCrashWakesLaneWaiter: Begins waiting for a lane across
// SimulateCrash return the crashed-pool error once one stranded Commit
// fails and hands its lane back, each waiter handing it on as it
// leaves. The other stranded Commits then free every lane.
func TestCrashWakesLaneWaiter(t *testing.T) {
	p, _ := createPool(t)
	oid, err := p.Alloc(TxLanes * 64)
	if err != nil {
		t.Fatal(err)
	}
	txs := leaseAllLanes(t, p, oid)
	const waiters = 3
	done := make(chan error, waiters)
	for range waiters {
		go func() {
			_, err := p.Begin()
			done <- err
		}()
	}
	waitForLaneWaiters(t, waiters)
	p.SimulateCrash()
	if err := txs[0].Commit(); err == nil {
		t.Fatal("commit on crashed pool succeeded")
	}
	for range waiters {
		select {
		case err := <-done:
			var pe *PoolError
			if !errors.As(err, &pe) || pe.Why != "pool crashed; reopen to recover" {
				t.Errorf("waiting Begin = %v, want the crashed-pool error", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("Begin still waiting 2 s after a stranded Commit freed a lane")
		}
	}
	for _, tx := range txs[1:] {
		if err := tx.Commit(); err == nil {
			t.Fatal("commit on crashed pool succeeded")
		}
	}
	if got := freeLaneCount(p); got != TxLanes {
		t.Errorf("free lanes = %d, want %d", got, TxLanes)
	}
	if got := p.activeTx(); got != 0 {
		t.Errorf("activeTx = %d, want 0", got)
	}
}

// TestLaneWaiterFailsWhenEveryLaneRetired: a Begin waiting for a lane
// returns the all-lanes-lost error, rather than waiting forever, when
// every leased lane is retired by a failed Abort.
func TestLaneWaiterFailsWhenEveryLaneRetired(t *testing.T) {
	fr := &failingRegion{Region: newMemRegion(testPoolSize, true)}
	p, err := Create(fr, "stream-arrays")
	if err != nil {
		t.Fatal(err)
	}
	oid, err := p.Alloc(TxLanes * 64)
	if err != nil {
		t.Fatal(err)
	}
	txs := leaseAllLanes(t, p, oid)
	done := make(chan error, 1)
	go func() {
		_, err := p.Begin()
		done <- err
	}()
	waitForLaneWaiters(t, 1)
	fr.fail.Store(true)
	for _, tx := range txs {
		if err := tx.Abort(); err == nil {
			t.Fatal("abort with failing media succeeded")
		}
	}
	fr.fail.Store(false)
	if got := p.lanesLost.Load(); got != TxLanes {
		t.Fatalf("lanesLost = %d, want %d", got, TxLanes)
	}
	select {
	case err := <-done:
		var te *TxError
		if !errors.As(err, &te) || te.Op != "begin" {
			t.Errorf("waiting Begin = %v, want the all-lanes-lost TxError", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Begin still waiting 2 s after every lane was retired")
	}
	if got := freeLaneCount(p); got != 0 {
		t.Errorf("free lanes = %d, want 0", got)
	}
	if got := p.activeTx(); got != 0 {
		t.Errorf("activeTx = %d, want 0", got)
	}
}

// TestReleasedLaneGoesToLongestWaiter: a released lane goes straight to
// the Begin that has waited longest, not to a later waiter nor to a
// Begin that arrives just after the release.
func TestReleasedLaneGoesToLongestWaiter(t *testing.T) {
	p, _ := createPool(t)
	oid, err := p.Alloc(TxLanes * 64)
	if err != nil {
		t.Fatal(err)
	}
	txs := leaseAllLanes(t, p, oid)
	begin := func() chan *Tx {
		c := make(chan *Tx, 1)
		go func() {
			tx, err := p.Begin()
			if err != nil {
				t.Error(err)
			}
			c <- tx
		}()
		return c
	}
	first := begin()
	waitForLaneWaiters(t, 1)
	second := begin()
	waitForLaneWaiters(t, 2)
	// Each commit frees one lane, and the longest waiter must get it.
	// The Begin started right after the first commit is the newest
	// claim and is served last.
	var late chan *Tx
	for i, want := range []string{"first", "second", "late"} {
		if err := txs[i].Commit(); err != nil {
			t.Fatal(err)
		}
		if late == nil {
			late = begin()
		}
		var got string
		var tx *Tx
		select {
		case tx = <-first:
			got = "first"
		case tx = <-second:
			got = "second"
		case tx = <-late:
			got = "late"
		case <-time.After(2 * time.Second):
			t.Fatalf("no waiter got the lane commit %d freed; want the %s", i, want)
		}
		if got != want {
			t.Fatalf("commit %d's lane went to the %s waiter, want the %s", i, got, want)
		}
		waitForLaneWaiters(t, 2-i)
		txs = append(txs, tx)
	}
	for _, tx := range txs[3:] {
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if got := freeLaneCount(p); got != TxLanes {
		t.Errorf("free lanes = %d, want %d", got, TxLanes)
	}
	if got := p.activeTx(); got != 0 {
		t.Errorf("activeTx = %d, want 0", got)
	}
}

// TestLaneWaitBoundedWhenOversubscribed runs twice as many goroutines
// as lanes, each yielding while it holds its lane, so every lane is
// leased and Updates queue for lanes. Each commit hands its lane to the
// longest waiter, and no claim takes a lane a waiter is owed, so while
// one Update waits every other goroutine commits about once. The bound
// allows twice that for the order in which the scheduler runs the
// goroutines it hands lanes to; a waiter passed over by later claims
// sees hundreds. It counts transactions, not time, so it holds on any
// host, and one P keeps the count exact: no transaction commits while
// the goroutine that counts is descheduled.
func TestLaneWaitBoundedWhenOversubscribed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p, _ := createPool(t)
	const workers, rounds = 2 * TxLanes, 50
	oids := make([]OID, workers)
	for i := range oids {
		var err error
		if oids[i], err = p.Alloc(64); err != nil {
			t.Fatal(err)
		}
	}
	var commits atomic.Int64
	passed := make([]int64, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				before := commits.Load()
				err := p.Update(oids[w], 0, 64, func(v []byte) error {
					passed[w] = max(passed[w], commits.Load()-before)
					v[0]++
					runtime.Gosched()
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				commits.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := commits.Load(); got != workers*rounds {
		t.Fatalf("commits = %d, want %d", got, workers*rounds)
	}
	if worst := slices.Max(passed); worst > 2*(workers-1) {
		t.Errorf("an Update waited while %d transactions committed, want at most %d", worst, 2*(workers-1))
	}
}
