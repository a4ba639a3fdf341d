package tiering

import (
	"bytes"
	"errors"
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

// TestConcurrentAccessDuringRebalance is the lock-across-I/O regression
// test, meaningful under -race: foreground Read/Write on every page
// proceeds while Rebalance migrates 2 MiB pages underneath. Before the
// per-page locking split this serialized everything behind one mutex
// (and the race is on the placement fields the old code read unlocked).
func TestConcurrentAccessDuringRebalance(t *testing.T) {
	mgr, _ := hierarchy(t, 2, 2, 2)
	var ids []PageID
	for i := 0; i < 6; i++ {
		id, err := mgr.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[(w+i)%len(ids)]
				off := int64((i % 32) * 64)
				if i%2 == 0 {
					if err := mgr.Write(id, buf, off); err != nil {
						t.Errorf("worker %d: write: %v", w, err)
						return
					}
				} else {
					if err := mgr.Read(id, buf, off); err != nil {
						t.Errorf("worker %d: read: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	// Migrate continuously under the foreground traffic: shuffle heat
	// so every Rebalance moves pages.
	buf := make([]byte, 8)
	for round := 0; round < 6; round++ {
		hot := ids[round%len(ids)]
		for i := 0; i < 20; i++ {
			if err := mgr.Read(hot, buf, 0); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := mgr.Rebalance(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	// Placement is still consistent: every page accounted for exactly
	// once across the tiers.
	st := mgr.Stats()
	total := 0
	for _, n := range st.PagesPerTier {
		total += n
	}
	if total != len(ids) {
		t.Errorf("pages per tier %v sum to %d, want %d", st.PagesPerTier, total, len(ids))
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
