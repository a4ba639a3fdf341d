package tiering

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"cxlpmem/internal/telemetry"
)

func testDaemon(t *testing.T, mgr *Manager, cfg DaemonConfig) *Daemon {
	t.Helper()
	d, err := NewDaemon(mgr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDaemonConfigValidation(t *testing.T) {
	mgr, _ := hierarchy(t, 1, 1, 1)
	if _, err := NewDaemon(mgr, DaemonConfig{BudgetPages: -1}); err == nil {
		t.Error("negative budget accepted")
	}
}

// TestDaemonColdStartEarnsWayUp: a page allocated cold (far tier) and
// then accessed heavily climbs exactly one tier level per eligible
// epoch — far, mid, fast — never skipping a level, and settles on the
// fast tier.
func TestDaemonColdStartEarnsWayUp(t *testing.T) {
	mgr, _ := hierarchy(t, 1, 1, 2)
	d := testDaemon(t, mgr, DaemonConfig{BudgetPages: 8})
	id, err := mgr.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if tier, _ := mgr.TierOf(id); tier != 2 {
		t.Fatalf("cold-start page on tier %d, want 2", tier)
	}
	buf := make([]byte, 64)
	var trajectory []int
	for epoch := 0; epoch < 8; epoch++ {
		for i := 0; i < 20; i++ {
			if err := mgr.Read(id, buf, 0); err != nil {
				t.Fatal(err)
			}
		}
		d.RunEpoch()
		tier, err := mgr.TierOf(id)
		if err != nil {
			t.Fatal(err)
		}
		trajectory = append(trajectory, tier)
	}
	t.Logf("tier trajectory: %v", trajectory)
	for i := 1; i < len(trajectory); i++ {
		if trajectory[i] > trajectory[i-1] {
			t.Fatalf("hot page demoted mid-climb: %v", trajectory)
		}
		if trajectory[i-1]-trajectory[i] > 1 {
			t.Fatalf("page skipped a tier level: %v", trajectory)
		}
	}
	if trajectory[len(trajectory)-1] != 0 {
		t.Errorf("hot page never earned the fast tier: %v", trajectory)
	}
	sawMid := false
	for _, tier := range trajectory {
		if tier == 1 {
			sawMid = true
		}
	}
	if !sawMid {
		t.Errorf("page never passed through the mid tier: %v", trajectory)
	}
}

// TestDaemonHysteresisNoPingPong: a page whose heat settles inside the
// band between the demote and promote watermarks stays put — the
// two-watermark hysteresis is what prevents a page oscillating around
// a single threshold from ping-ponging between tiers.
func TestDaemonHysteresisNoPingPong(t *testing.T) {
	mgr, _ := hierarchy(t, 1, 1, 1)
	d := testDaemon(t, mgr, DaemonConfig{BudgetPages: 8})
	far, _ := mgr.Alloc()  // tier 2: never accessed, already at the bottom
	mid, _ := mgr.Alloc()  // tier 1: the in-band page under test
	fast, _ := mgr.Alloc() // tier 0: kept hot so it never demotes
	buf := make([]byte, 64)
	for epoch := 0; epoch < 10; epoch++ {
		// Steady 3 accesses/epoch: decayed heat (decay 0.5)
		// converges to 6 — above demoteWatermark (1), below
		// promoteWatermark (8).
		for i := 0; i < 3; i++ {
			if err := mgr.Read(mid, buf, 0); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 40; i++ {
			if err := mgr.Read(fast, buf, 0); err != nil {
				t.Fatal(err)
			}
		}
		d.RunEpoch()
		if tier, _ := mgr.TierOf(mid); tier != 1 {
			t.Fatalf("epoch %d: in-band page moved to tier %d", epoch, tier)
		}
	}
	if tier, _ := mgr.TierOf(far); tier != 2 {
		t.Errorf("idle far page moved to tier %d", tier)
	}
	st := mgr.Stats()
	if st.Promotions != 0 || st.Demotions != 0 {
		t.Errorf("in-band workload caused %d promotions, %d demotions (ping-pong)", st.Promotions, st.Demotions)
	}
}

// TestDaemonPromotesHotDemotesCold: a hot page cold-started on the far
// tier climbs one tier per eligible epoch to the fast tier, swapping
// with the idle occupant of each tier it enters, so each idle page it
// passes moves one tier down. Every page's bytes follow it, and each
// epoch consumes the access counts it read.
func TestDaemonPromotesHotDemotesCold(t *testing.T) {
	mgr, _ := hierarchy(t, 1, 1, 1)
	d := testDaemon(t, mgr, DaemonConfig{BudgetPages: 8})
	a, _ := mgr.Alloc() // cold start: lands tier 2
	b, _ := mgr.Alloc() // tier 1
	c, _ := mgr.Alloc() // tier 0
	content := func(id PageID) []byte { return []byte(fmt.Sprintf("page %03d", id)) }
	for _, id := range []PageID{a, b, c} {
		if err := mgr.Write(id, content(id), 0); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 8)
	var trajectory []int
	for epoch := 1; epoch <= 4; epoch++ {
		for i := 0; i < 30; i++ {
			if err := mgr.Read(a, buf, 0); err != nil {
				t.Fatal(err)
			}
		}
		d.RunEpoch()
		if h := accesses(t, mgr, a); h != 0 {
			t.Errorf("epoch %d left %d accesses unconsumed", epoch, h)
		}
		tier, _ := mgr.TierOf(a)
		trajectory = append(trajectory, tier)
	}
	ta, _ := mgr.TierOf(a)
	tb, _ := mgr.TierOf(b)
	tc, _ := mgr.TierOf(c)
	if ta != 0 || tc != 1 || tb != 2 {
		t.Errorf("hot page on tier %d (trajectory %v), the idle pages it passed on tiers %d and %d; want 0, then 2 and 1",
			ta, trajectory, tb, tc)
	}
	for _, id := range []PageID{a, b, c} {
		if err := mgr.Read(id, buf, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, content(id)) {
			t.Errorf("page %d reads %q after migrating, want %q", id, buf, content(id))
		}
	}
	st := mgr.Stats()
	if st.Promotions == 0 || st.Demotions == 0 || st.BytesMigrated == 0 {
		t.Errorf("stats = %+v", st)
	}
	if len(st.PagesPerTier) != 3 || st.PagesPerTier[0] != 1 {
		t.Errorf("pages per tier = %v", st.PagesPerTier)
	}
}

// TestDaemonReducesAvgLatency: two hot pages cold-started on DCPMM climb
// to DDR5 over the epochs, and the access-weighted average latency of
// the same access pattern drops.
func TestDaemonReducesAvgLatency(t *testing.T) {
	mgr, hybrid := hierarchy(t, 2, 2, 2)
	d := testDaemon(t, mgr, DaemonConfig{BudgetPages: 8})
	c0, err := hybrid.Core(0)
	if err != nil {
		t.Fatal(err)
	}
	// Fill all six pages; make the two dcpmm-resident ones (cold-start
	// places the first allocations there) hottest.
	var ids []PageID
	for i := 0; i < 6; i++ {
		id, err := mgr.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	buf := make([]byte, 8)
	touch := func() {
		for _, id := range ids[:2] {
			for i := 0; i < 50; i++ {
				if err := mgr.Read(id, buf, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	touch()
	before, err := mgr.AvgAccessLatency(hybrid, c0)
	if err != nil {
		t.Fatal(err)
	}
	// Re-apply the same access pattern after each epoch, so the last
	// one is measured on the placement the epochs left.
	for epoch := 0; epoch < 4; epoch++ {
		d.RunEpoch()
		touch()
	}
	after, err := mgr.AvgAccessLatency(hybrid, c0)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Errorf("daemon epochs did not reduce avg latency: %v -> %v (placement %v)", before, after, mgr.Stats().PagesPerTier)
	}
}

// TestDaemonBudgetCap: the per-epoch migration budget bounds how many
// pages move, with the overflow deferred to later epochs.
func TestDaemonBudgetCap(t *testing.T) {
	mgr, _ := hierarchy(t, 8, 8, 8)
	d := testDaemon(t, mgr, DaemonConfig{BudgetPages: 3})
	for i := 0; i < 8; i++ { // 8 idle pages on the fast tier
		id, err := mgr.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.moveTo(id, 0); err != nil {
			t.Fatal(err)
		}
	}
	totalDemoted := 0
	firstMoving := 0
	for epoch := 1; epoch <= 8; epoch++ {
		st := d.RunEpoch()
		if st.BudgetUsed > 3 {
			t.Fatalf("epoch %d used budget %d, cap 3", epoch, st.BudgetUsed)
		}
		if st.Demoted > 0 && firstMoving == 0 {
			firstMoving = epoch
			if st.Demoted != 3 {
				t.Errorf("first moving epoch demoted %d, want the full budget 3", st.Demoted)
			}
			if st.Deferred == 0 {
				t.Error("budget overflow not reported as deferred")
			}
		}
		totalDemoted += st.Demoted
	}
	if totalDemoted < 8 {
		t.Errorf("only %d demotions across 8 epochs; deferral never caught up", totalDemoted)
	}
	if mgr.Stats().PagesPerTier[0] != 0 {
		t.Errorf("idle pages left on fast tier: %v", mgr.Stats().PagesPerTier)
	}
}

// TestDaemonZipfianConvergence is the acceptance test: on a zipfian
// workload whose hot set fits the fast tier, the daemon converges from
// cold start (every page far) to ≥90% of hot-set accesses served from
// the fast tier within a bounded number of epochs, and the converged
// placement's modelled average access latency beats static far
// placement.
func TestDaemonZipfianConvergence(t *testing.T) {
	const (
		nPages    = 16
		hotSet    = 4 // == fast-tier capacity
		samples   = 2000
		maxEpochs = 12
	)
	mgr, hybrid := hierarchy(t, hotSet, 8, nPages)
	d := testDaemon(t, mgr, DaemonConfig{BudgetPages: 8})
	c0, err := hybrid.Core(0)
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	for i := 0; i < nPages; i++ {
		id, err := mgr.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if tier, _ := mgr.TierOf(id); tier != 2 {
			t.Fatalf("cold start: page %d on tier %d", id, tier)
		}
	}
	rng := rand.New(rand.NewSource(42))
	zipf := rand.NewZipf(rng, 1.3, 2, nPages-1)
	buf := make([]byte, 64)
	applyEpoch := func() []int {
		counts := make([]int, nPages)
		for i := 0; i < samples; i++ {
			p := int(zipf.Uint64())
			counts[p]++
			if err := mgr.Read(ids[p], buf, int64((i%64)*64)); err != nil {
				t.Fatal(err)
			}
		}
		return counts
	}

	// Static far placement baseline.
	applyEpoch()
	static, err := mgr.AvgAccessLatency(hybrid, c0)
	if err != nil {
		t.Fatal(err)
	}

	converged := -1
	for epoch := 1; epoch <= maxEpochs; epoch++ {
		counts := applyEpoch()
		d.RunEpoch()
		// Fraction of hot-set accesses the fast tier would now serve.
		hot, fast := 0, 0
		for p := 0; p < hotSet; p++ {
			hot += counts[p]
			if tier, _ := mgr.TierOf(ids[p]); tier == 0 {
				fast += counts[p]
			}
		}
		if frac := float64(fast) / float64(hot); frac >= 0.9 {
			converged = epoch
			t.Logf("epoch %d: %.0f%% of hot-set accesses on fast tier", epoch, 100*frac)
			break
		}
	}
	if converged < 0 {
		t.Fatalf("daemon did not converge within %d epochs: placement %v", maxEpochs, mgr.Stats().PagesPerTier)
	}
	// Converged placement strictly beats static far placement.
	applyEpoch()
	tiered, err := mgr.AvgAccessLatency(hybrid, c0)
	if err != nil {
		t.Fatal(err)
	}
	if tiered >= static {
		t.Errorf("converged latency %v not better than static far %v", tiered, static)
	}
	t.Logf("avg access latency: static far %v -> daemon %v (converged epoch %d)", static, tiered, converged)
}

// TestDaemonConcurrentForeground: epochs run back to back on their own
// goroutine against live foreground Read/Write traffic (the -race half
// of the battery).
func TestDaemonConcurrentForeground(t *testing.T) {
	mgr, _ := hierarchy(t, 2, 2, 4)
	d := testDaemon(t, mgr, DaemonConfig{BudgetPages: 8})
	var ids []PageID
	for i := 0; i < 8; i++ {
		id, err := mgr.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	stop := make(chan struct{})
	epochs := make(chan uint64)
	go func() {
		for {
			last := d.RunEpoch()
			select {
			case <-stop:
				epochs <- last.Epoch
				return
			default:
			}
		}
	}()
	done := make(chan error, 2)
	for w := 0; w < 2; w++ {
		go func(w int) {
			buf := make([]byte, 64)
			for i := 0; i < 3000; i++ {
				id := ids[(w*3+i)%len(ids)]
				var err error
				if i%2 == 0 {
					err = mgr.Write(id, buf, int64((i%16)*64))
				} else {
					err = mgr.Read(id, buf, int64((i%16)*64))
				}
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	var werr error
	for w := 0; w < 2; w++ {
		if err := <-done; err != nil && werr == nil {
			werr = err
		}
	}
	close(stop)
	if n := <-epochs; n == 0 {
		t.Error("no epoch ran during the foreground traffic")
	}
	if werr != nil {
		t.Fatal(werr)
	}
	total := 0
	for _, n := range mgr.Stats().PagesPerTier {
		total += n
	}
	if total != len(ids) {
		t.Errorf("pages per tier %v sum to %d, want %d", mgr.Stats().PagesPerTier, total, len(ids))
	}
}

func TestDaemonTelemetry(t *testing.T) {
	mgr, _ := hierarchy(t, 1, 1, 2)
	d := testDaemon(t, mgr, DaemonConfig{BudgetPages: 8})
	reg := telemetry.NewRegistry()
	mgr.RegisterMetrics(reg)
	d.RegisterMetrics(reg)
	id, err := mgr.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for epoch := 0; epoch < 4; epoch++ {
		for i := 0; i < 20; i++ {
			if err := mgr.Read(id, buf, 0); err != nil {
				t.Fatal(err)
			}
		}
		d.RunEpoch()
	}
	found := map[string]bool{}
	for _, s := range reg.Gather() {
		found[s.Name] = true
		switch s.Name {
		case "tiering_daemon_epochs_total":
			if s.Value != 4 {
				t.Errorf("epochs_total = %v, want 4", s.Value)
			}
		case "tiering_daemon_promotions_total":
			if s.Value < 1 {
				t.Errorf("promotions_total = %v, want >= 1", s.Value)
			}
		case "tiering_daemon_epoch_ns":
			if s.Hist == nil || s.Hist.Count != 4 {
				t.Errorf("epoch latency histogram missing samples: %+v", s.Hist)
			}
		}
	}
	for _, name := range []string{
		"tiering_daemon_epochs_total", "tiering_daemon_promotions_total",
		"tiering_daemon_demotions_total", "tiering_daemon_deferred_total",
		"tiering_daemon_epoch_ns", "tiering_daemon_scanned_pages",
		"tiering_promotions_total", "tiering_tier_pages",
	} {
		if !found[name] {
			t.Errorf("metric %s not exposed", name)
		}
	}
}
