package tiering

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"cxlpmem/internal/cxl"
)

// errInjected is the fault the failing MemIO wrapper returns.
var errInjected = errors.New("injected media fault")

// faultIO wraps a tier's data path and fails exactly one byte-path
// operation: the failAt'th ReadAt/WriteAt counted across every wrapped
// tier (the counter is shared, and atomic because pipeCopy's reader and
// writer run concurrently). Every other operation — including the
// rollback writes a failed swap issues — succeeds.
type faultIO struct {
	cxl.MemIO
	ops    *atomic.Int64
	failAt int64
}

func (f *faultIO) ReadAt(p []byte, off int64) error {
	if f.ops.Add(1) == f.failAt {
		return errInjected
	}
	return f.MemIO.ReadAt(p, off)
}

func (f *faultIO) WriteAt(p []byte, off int64) error {
	if f.ops.Add(1) == f.failAt {
		return errInjected
	}
	return f.MemIO.WriteAt(p, off)
}

func pagePattern(seed byte) []byte {
	p := make([]byte, PageSize)
	for i := range p {
		p[i] = seed + byte(i%251)
	}
	return p
}

// TestSwapFailureAtomicity is the torn-swap regression test: before the
// fix, any failure after pipeCopy started streaming B into A's old slot
// returned with A's slot holding partial B while the maps still claimed
// A lived there — page A silently corrupted. With rollback, a failed
// swap leaves both pages byte-exact and in their original tiers, at
// every possible failure point.
func TestSwapFailureAtomicity(t *testing.T) {
	patA, patB := pagePattern(0xA0), pagePattern(0xB0)
	failures := 0
	for failAt := int64(1); ; failAt++ {
		mgr, _ := hierarchy(t, 1, 1, 1)
		a, err := mgr.Alloc() // cold start: tier 2
		if err != nil {
			t.Fatal(err)
		}
		b, err := mgr.Alloc() // tier 1
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.Write(a, patA, 0); err != nil {
			t.Fatal(err)
		}
		if err := mgr.Write(b, patB, 0); err != nil {
			t.Fatal(err)
		}
		// Arm the fault after setup so only the swap's own traffic
		// counts toward the failure point.
		var ops atomic.Int64
		var armed []*faultIO
		for _, tr := range mgr.Tiers() {
			f := &faultIO{MemIO: tr.IO, ops: &ops, failAt: failAt}
			tr.IO = f
			armed = append(armed, f)
		}
		err = mgr.swap(a, b)
		// Disarm so verification reads cannot trip the injector.
		for _, f := range armed {
			f.failAt = 0
		}
		if err == nil {
			// The swap needed fewer operations than failAt: the sweep
			// has covered every failure point.
			if failures == 0 {
				t.Fatal("fault sweep never injected a failure")
			}
			got := make([]byte, PageSize)
			if err := mgr.Read(a, got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, patA) {
				t.Error("page A content lost across successful swap")
			}
			if ta, _ := mgr.TierOf(a); ta != 1 {
				t.Errorf("page A on tier %d after swap, want 1", ta)
			}
			t.Logf("swap atomicity verified across %d injected failure points", failures)
			return
		}
		failures++
		if !errors.Is(err, errInjected) {
			t.Fatalf("failAt=%d: swap error %v does not wrap the injected fault", failAt, err)
		}
		// Both pages must be byte-exact and in their original tiers.
		for _, c := range []struct {
			id   PageID
			pat  []byte
			tier int
		}{{a, patA, 2}, {b, patB, 1}} {
			if tier, err := mgr.TierOf(c.id); err != nil || tier != c.tier {
				t.Fatalf("failAt=%d: page %d on tier %d (%v), want %d", failAt, c.id, tier, err, c.tier)
			}
			got := make([]byte, PageSize)
			if err := mgr.Read(c.id, got, 0); err != nil {
				t.Fatalf("failAt=%d: reading page %d: %v", failAt, c.id, err)
			}
			if !bytes.Equal(got, c.pat) {
				t.Fatalf("failAt=%d: page %d torn after failed swap (first diff at %d)",
					failAt, c.id, firstDiff(got, c.pat))
			}
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestScrubOnFree is the stale-data-leak regression test: before the
// fix, Free returned the slot to the free list unscrubbed, so the next
// Alloc handed out a page that read the previous owner's bytes.
func TestScrubOnFree(t *testing.T) {
	mgr, _ := hierarchy(t, 1, 1, 1)
	id, err := mgr.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	secret := pagePattern(0x5E)
	if err := mgr.Write(id, secret, 0); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Free(id); err != nil {
		t.Fatal(err)
	}
	// Cold start reuses the same far-tier slot.
	id2, err := mgr.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := mgr.Read(id2, got, 0); err != nil {
		t.Fatal(err)
	}
	if i := firstDiff(got, make([]byte, PageSize)); i != -1 {
		t.Errorf("freshly allocated page leaks previous owner's bytes (offset %d = %#x)", i, got[i])
	}
}

// TestScrubOnMigrationVacatedSlot covers the lazy half of the scrub
// guarantee: a slot vacated by a migration still holds the page's bytes
// (marked dirty instead of eagerly zeroed) and must be scrubbed when
// Alloc hands it to a new owner.
func TestScrubOnMigrationVacatedSlot(t *testing.T) {
	mgr, _ := hierarchy(t, 1, 1, 1)
	id, err := mgr.Alloc() // tier 2
	if err != nil {
		t.Fatal(err)
	}
	secret := pagePattern(0x71)
	if err := mgr.Write(id, secret, 0); err != nil {
		t.Fatal(err)
	}
	if err := mgr.moveTo(id, 1); err != nil {
		t.Fatal(err)
	}
	// The vacated tier-2 slot is the only free far slot; cold start
	// hands it to the next page.
	id2, err := mgr.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if tier, _ := mgr.TierOf(id2); tier != 2 {
		t.Fatalf("new page on tier %d, want the vacated far slot", tier)
	}
	got := make([]byte, PageSize)
	if err := mgr.Read(id2, got, 0); err != nil {
		t.Fatal(err)
	}
	if i := firstDiff(got, make([]byte, PageSize)); i != -1 {
		t.Errorf("migration-vacated slot leaks moved page's bytes (offset %d = %#x)", i, got[i])
	}
	// The moved page itself is intact.
	if err := mgr.Read(id, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Error("migrated page content lost")
	}
}

// TestConcurrentAccessDuringEpochs is the lock-across-I/O regression
// test, meaningful under -race: while daemon epochs migrate 2 MiB pages
// by plain moves and by swaps, each hot page's one writer stamps a
// per-page sequence into one slot per migration chunk and, after every
// stamp, reads back every slot of its page, so a write lost to a
// migration fails the test at the writer's next stamp. Before the
// per-page locking split this serialized everything behind one mutex
// (and the race is on the placement fields the old code read
// unlocked).
func TestConcurrentAccessDuringEpochs(t *testing.T) {
	// Four hot pages cold-start on the far tier and climb; the two
	// idle pages cold-started on the mid tier are swapped down to make
	// room for them.
	const (
		hot    = 4
		slots  = PageSize / migrateChunk
		stride = migrateChunk
	)
	mgr, _ := hierarchy(t, 2, 2, 4)
	d := testDaemon(t, mgr, DaemonConfig{BudgetPages: 8})
	ids := make([]PageID, hot+2)
	for i := range ids {
		var err error
		if ids[i], err = mgr.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	// want[i] is what page i's slots hold: the last stamp its writer
	// put in each. Only that writer touches it until the end.
	want := make([][slots]uint64, len(ids))
	verify := func(i int) error {
		var b [8]byte
		for k, w := range want[i] {
			if err := mgr.Read(ids[i], b[:], int64(k)*stride); err != nil {
				return err
			}
			if got := binary.LittleEndian.Uint64(b[:]); got != w {
				return fmt.Errorf("page %d slot %d holds %#x, want %#x", ids[i], k, got, w)
			}
		}
		return nil
	}
	stamp := func(i int, seq uint64) error {
		var b [8]byte
		v := uint64(ids[i])<<32 | seq
		binary.LittleEndian.PutUint64(b[:], v)
		if err := mgr.Write(ids[i], b[:], int64(seq%slots)*stride); err != nil {
			return err
		}
		want[i][seq%slots] = v
		return nil
	}
	for i := hot; i < len(ids); i++ { // the idle pages' one stamp
		if err := stamp(i, 1); err != nil {
			t.Fatal(err)
		}
	}
	stamps := make([]atomic.Uint64, hot)
	stop := make(chan struct{})
	var failed atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < hot; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for seq := uint64(1); ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				err := stamp(i, seq)
				if err == nil {
					err = verify(i)
				}
				if err != nil {
					t.Errorf("writer of page %d, stamp %d: %v", ids[i], seq, err)
					failed.Store(true)
					return
				}
				stamps[i].Store(seq)
				runtime.Gosched() // let the epochs run at one P too
			}
		}(i)
	}
	for epoch := 1; epoch <= 8 && !failed.Load(); epoch++ {
		// Every hot page stamps three more times (9 accesses each, one
		// of which may straddle the last epoch) before the next epoch,
		// so it stays above the promote watermark whatever the
		// schedule.
		for i := 0; i < hot && !failed.Load(); i++ {
			for target := stamps[i].Load() + 3; stamps[i].Load() < target && !failed.Load(); {
				runtime.Gosched()
			}
		}
		d.RunEpoch()
	}
	close(stop)
	wg.Wait()
	if failed.Load() {
		t.FailNow()
	}
	for i, id := range ids {
		if err := verify(i); err != nil {
			t.Error(err)
		}
		tier, err := mgr.TierOf(id)
		if err != nil {
			t.Fatal(err)
		}
		if idle := i >= hot; idle != (tier == 2) {
			t.Errorf("page %d (idle %v) ended on tier %d; pages per tier %v", id, idle, tier, mgr.Stats().PagesPerTier)
		}
	}
}

// TestFreeScrubFailureKeepsSlotDirty: when the scrub on Free itself
// fails, the slot must come back dirty so Alloc re-scrubs it — the
// error is reported but capacity is not leaked.
func TestFreeScrubFailureKeepsSlotDirty(t *testing.T) {
	mgr, _ := hierarchy(t, 1, 1, 1)
	id, err := mgr.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	secret := pagePattern(0x33)
	if err := mgr.Write(id, secret, 0); err != nil {
		t.Fatal(err)
	}
	// Fail the first scrub write, then heal.
	var ops atomic.Int64
	far := mgr.Tiers()[2]
	far.IO = &faultIO{MemIO: far.IO, ops: &ops, failAt: 1}
	if err := mgr.Free(id); err == nil || !errors.Is(err, errInjected) {
		t.Fatalf("Free error = %v, want injected scrub failure", err)
	}
	id2, err := mgr.Alloc() // re-scrubs the dirty slot (fault is one-shot)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := mgr.Read(id2, got, 0); err != nil {
		t.Fatal(err)
	}
	if i := firstDiff(got, make([]byte, PageSize)); i != -1 {
		t.Errorf("slot leaked bytes after failed scrub on Free (offset %d)", i)
	}
}

// TestMoveToFailureLeavesSourceIntact: a failed migration must leave
// the page readable in its original slot and return the partially
// written destination slot to the free list dirty.
func TestMoveToFailureLeavesSourceIntact(t *testing.T) {
	mgr, _ := hierarchy(t, 1, 1, 1)
	id, err := mgr.Alloc() // tier 2
	if err != nil {
		t.Fatal(err)
	}
	pat := pagePattern(0x44)
	if err := mgr.Write(id, pat, 0); err != nil {
		t.Fatal(err)
	}
	var ops atomic.Int64
	mid := mgr.Tiers()[1]
	mid.IO = &faultIO{MemIO: mid.IO, ops: &ops, failAt: 3} // mid-pipe write
	if err := mgr.moveTo(id, 1); err == nil || !errors.Is(err, errInjected) {
		t.Fatalf("moveTo error = %v, want injected fault", err)
	}
	if tier, _ := mgr.TierOf(id); tier != 2 {
		t.Fatalf("page on tier %d after failed move, want 2", tier)
	}
	got := make([]byte, PageSize)
	if err := mgr.Read(id, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pat) {
		t.Error("source page torn after failed migration")
	}
	// The reserved destination slot went back dirty: a later successful
	// move plus alloc of the vacated slot still scrubs clean (exercised
	// in TestScrubOnMigrationVacatedSlot; here just confirm capacity is
	// not leaked).
	if err := mgr.moveTo(id, 1); err != nil {
		t.Fatalf("retry after failed move: %v", err)
	}
}

// TestFreeDoubleFree guards the freed flag: a second Free and accesses
// after Free fail cleanly.
func TestFreeDoubleFree(t *testing.T) {
	mgr, _ := hierarchy(t, 1, 1, 1)
	id, err := mgr.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Free(id); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Free(id); err == nil {
		t.Error("double free accepted")
	}
	if err := mgr.Read(id, make([]byte, 8), 0); err == nil {
		t.Error("read after free accepted")
	}
	if err := mgr.moveTo(id, 0); err == nil {
		t.Error("move after free accepted")
	}
}
