package tiering

import (
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
	if _, err := NewDaemon(mgr, DaemonConfig{PromoteWatermark: 2, DemoteWatermark: 5}); err == nil {
		t.Error("inverted watermarks accepted")
	}
	if _, err := NewDaemon(mgr, DaemonConfig{BudgetPages: -1}); err == nil {
		t.Error("negative budget accepted")
	}
	d := testDaemon(t, mgr, DaemonConfig{})
	cfg := d.cfg
	if cfg.PromoteWatermark <= cfg.DemoteWatermark {
		t.Errorf("defaulted config lost the hysteresis band: %+v", cfg)
	}
}

// TestDaemonColdStartEarnsWayUp: a page allocated cold (far tier) and
// then accessed heavily climbs exactly one tier level per eligible
// epoch — far, mid, fast — never skipping a level, and settles on the
// fast tier.
func TestDaemonColdStartEarnsWayUp(t *testing.T) {
	mgr, _ := hierarchy(t, 1, 1, 2)
	d := testDaemon(t, mgr, DaemonConfig{})
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
	d := testDaemon(t, mgr, DaemonConfig{PromoteWatermark: 8, DemoteWatermark: 1, Decay: 0.5})
	far, _ := mgr.Alloc()  // tier 2: never accessed, already at the bottom
	mid, _ := mgr.Alloc()  // tier 1: the in-band page under test
	fast, _ := mgr.Alloc() // tier 0: kept hot so it never demotes
	buf := make([]byte, 64)
	for epoch := 0; epoch < 10; epoch++ {
		// Steady 3 accesses/epoch: decayed heat converges to 6 —
		// above demote (1), below promote (8).
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
	d := testDaemon(t, mgr, DaemonConfig{})
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
	d := testDaemon(t, mgr, DaemonConfig{})
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
	d := testDaemon(t, mgr, DaemonConfig{})
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
