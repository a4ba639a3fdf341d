package tiering

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// The policy's fixed parameters.
const (
	// promoteWatermark is the decayed-heat level at or above which a
	// page is a promotion candidate.
	promoteWatermark = 8
	// demoteWatermark is the decayed-heat level at or below which a
	// page is a demotion candidate. The gap up to promoteWatermark is
	// the hysteresis band where pages stay put, so a page oscillating
	// around a single threshold cannot ping-pong between tiers.
	demoteWatermark = 1
	// minResidency is how many full epochs a page must sit in its tier
	// before it may move again — the second anti-ping-pong guard, and
	// the window in which a freshly moved page re-earns its heat.
	minResidency = 1
	// decay is the per-epoch multiplier on accumulated heat before the
	// epoch's fresh counts are added (an exponentially weighted moving
	// sum): a page's influence halves every epoch it stays idle.
	decay = 0.5
)

// DaemonConfig tunes the policy daemon. Epochs run when the caller
// calls RunEpoch.
type DaemonConfig struct {
	// BudgetPages caps pages moved per epoch (a plain migration costs
	// 1, a swap 2), bounding how much migration bandwidth the daemon
	// steals from foreground traffic. Zero moves nothing.
	BudgetPages int
}

// EpochStats reports one policy epoch.
type EpochStats struct {
	// Epoch is the 1-based epoch number.
	Epoch uint64
	// Promoted and Demoted count pages moved up / down this epoch
	// (each side of a swap counts once).
	Promoted int
	Demoted  int
	// BudgetUsed is the migration budget consumed (migration 1,
	// swap 2); never exceeds DaemonConfig.BudgetPages.
	BudgetUsed int
	// Deferred counts eligible moves skipped because the budget ran
	// out — they retry next epoch.
	Deferred int
	// Pages is the number of live pages scanned.
	Pages int
	// Duration is the epoch's wall time (scan + migrations).
	Duration time.Duration
}

// Daemon is the memtier-style policy engine: it watches device-side
// hotness windows (memdev heat counters, advanced once per epoch) plus
// the manager's own access counts, maintains a decayed heat score per
// page, and promotes hot pages up / demotes cold pages down one tier
// level per epoch within a migration budget. Promotion and demotion
// use distinct watermarks (hysteresis) and a minimum residency, so a
// page hovering near a threshold settles instead of ping-ponging.
//
// RunEpoch calls are serialized against each other, and each move they
// make takes the manager's migration lock; foreground Alloc, Free, Read
// and Write proceed concurrently under the manager's per-page locking.
type Daemon struct {
	m   *Manager
	cfg DaemonConfig

	// epoch state, guarded by mu (RunEpoch may be called from several
	// goroutines).
	mu     sync.Mutex
	epochs uint64
	last   EpochStats

	// cumulative counters for telemetry, guarded by mu.
	promoted, demoted, deferred uint64

	// epochDur feeds the tiering_daemon_epoch_seconds histogram when
	// metrics are registered; nil otherwise.
	epochDur func(time.Duration)
}

// NewDaemon builds a policy daemon over a manager, enabling device-side
// heat windows on every tier (page-granular). Each RunEpoch call runs
// one epoch.
func NewDaemon(m *Manager, cfg DaemonConfig) (*Daemon, error) {
	if cfg.BudgetPages < 0 {
		return nil, fmt.Errorf("tiering: negative migration budget")
	}
	if err := m.enableDeviceHeat(); err != nil {
		return nil, err
	}
	return &Daemon{m: m, cfg: cfg}, nil
}

// candidate is one page under policy consideration this epoch.
type candidate struct {
	id   PageID
	st   *pageState
	tier int
	heat float64
}

// RunEpoch executes one policy epoch synchronously: advance the device
// heat windows, refresh every page's decayed heat score, then demote
// cold pages and promote hot ones — one tier level each — within the
// migration budget. Demotions run first so they open fast-tier slots
// for this epoch's promotions; a promotion into a still-full tier
// swaps with a demotion-eligible occupant (budget 2) or waits.
func (d *Daemon) RunEpoch() EpochStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	start := time.Now()
	d.epochs++
	stats := EpochStats{Epoch: d.epochs}

	// Retire the device-side windows: EpochCount now reports last
	// window's per-slot access counts.
	for _, t := range d.m.tiers {
		if t.heat != nil {
			t.heat.AdvanceEpoch()
		}
	}

	// Refresh heat scores. Device counters see every access path that
	// reaches the media — including the manager's own Read/Write, so
	// the two observations overlap: take the max, not the sum. A page
	// that moved last epoch (residency 0) uses only the manager count:
	// the migration itself touched its old and new slots at device
	// level, and those copies must not read as application heat.
	d.m.mu.RLock()
	all := d.m.snapshotLocked()
	d.m.mu.RUnlock()
	cands := make([]candidate, 0, len(all))
	for _, e := range all {
		fresh := e.st.accesses.Swap(0)
		e.st.mu.RLock()
		tier, off, freed := e.st.tier, e.st.off, e.st.freed
		e.st.mu.RUnlock()
		if freed {
			continue
		}
		count := float64(fresh)
		if t := d.m.tiers[tier]; t.heat != nil && e.st.residency > 0 {
			if dev := float64(t.heat.EpochCount(off)); dev > count {
				count = dev
			}
		}
		e.st.heat = e.st.heat*decay + count
		e.st.residency++
		cands = append(cands, candidate{e.id, e.st, tier, e.st.heat})
	}
	stats.Pages = len(cands)

	// Partition: hot pages below the top tier promote, cold pages
	// above the bottom tier demote; the band between the watermarks —
	// and anything inside its minimum residency — stays put.
	movable := func(c candidate) bool { return c.st.residency > minResidency }
	var promos, demos []candidate
	for _, c := range cands {
		switch {
		case !movable(c):
		case c.tier > 0 && c.heat >= promoteWatermark:
			promos = append(promos, c)
		case c.tier < len(d.m.tiers)-1 && c.heat <= demoteWatermark:
			demos = append(demos, c)
		}
	}
	// Hottest promotions and coldest demotions first; ties by id for
	// determinism.
	sort.Slice(promos, func(a, b int) bool {
		if promos[a].heat != promos[b].heat {
			return promos[a].heat > promos[b].heat
		}
		return promos[a].id < promos[b].id
	})
	sort.Slice(demos, func(a, b int) bool {
		if demos[a].heat != demos[b].heat {
			return demos[a].heat < demos[b].heat
		}
		return demos[a].id < demos[b].id
	})

	budget := d.cfg.BudgetPages
	moved := func(c candidate) { c.st.residency = 0 }

	// Demotions first: they are what frees fast-tier room.
	demoted := make(map[PageID]bool)
	for _, c := range demos {
		if budget < 1 {
			stats.Deferred++
			continue
		}
		if err := d.m.moveTo(c.id, c.tier+1); err != nil {
			continue // tier full or page freed mid-epoch: retry next time
		}
		budget--
		stats.Demoted++
		demoted[c.id] = true
		moved(c)
	}
	// Promotions, hottest first, one level up.
	for _, c := range promos {
		if budget < 1 {
			stats.Deferred++
			continue
		}
		err := d.m.moveTo(c.id, c.tier-1)
		if err == nil {
			budget--
			stats.Promoted++
			moved(c)
			continue
		}
		if err != ErrTierFull {
			continue // freed mid-epoch
		}
		// Target tier full: swap with its coldest demotion-eligible
		// occupant, if the budget has room for both halves.
		if budget < 2 {
			stats.Deferred++
			continue
		}
		victim, ok := d.coldestEligible(cands, c.tier-1, demoted)
		if !ok {
			stats.Deferred++
			continue
		}
		if err := d.m.swap(c.id, victim.id); err != nil {
			continue
		}
		budget -= 2
		stats.Promoted++
		stats.Demoted++
		moved(c)
		moved(victim)
	}
	stats.BudgetUsed = d.cfg.BudgetPages - budget
	stats.Duration = time.Since(start)

	d.last = stats
	d.promoted += uint64(stats.Promoted)
	d.demoted += uint64(stats.Demoted)
	d.deferred += uint64(stats.Deferred)
	if d.epochDur != nil {
		d.epochDur(stats.Duration)
	}
	return stats
}

// coldestEligible picks the coldest movable page currently on the given
// tier whose heat sits at or below the demote watermark — a swap victim
// that would have been demoted anyway had a slot been free below.
func (d *Daemon) coldestEligible(cands []candidate, tier int, taken map[PageID]bool) (candidate, bool) {
	best := candidate{}
	found := false
	for _, c := range cands {
		if taken[c.id] || c.st.residency <= minResidency {
			continue
		}
		// Placement may have changed this epoch; re-read it.
		c.st.mu.RLock()
		cur, freed := c.st.tier, c.st.freed
		c.st.mu.RUnlock()
		if freed || cur != tier || c.heat > demoteWatermark {
			continue
		}
		if !found || c.heat < best.heat || (c.heat == best.heat && c.id < best.id) {
			best, found = c, true
		}
	}
	return best, found
}
