package cluster

import (
	"fmt"
	"sync"
	"time"

	"cxlpmem/internal/memdev"
	"cxlpmem/internal/units"
)

// QoS throttle. The appliance pipeline is a shared resource; without
// enforcement one aggressive tenant can starve the rest (the memtier
// problem: workloads drawing from a shared pool of memory controllers
// need their draw rebalanced on demand). The throttle meters each
// tenant's achieved bandwidth from its device's memdev.Stats counters
// — the same counters the data path already maintains, so metering
// adds nothing to the hot path — and paces tenants that run ahead of
// their share of the pipeline.

// Throttle enforces per-tenant bandwidth shares of a total budget.
// Safe for concurrent use: each tenant's pacing decision reads its own
// stats counters (atomics) plus its share and epoch under a short lock;
// the sleep happens outside.
type Throttle struct {
	total units.Bandwidth

	mu      sync.Mutex
	tenants map[string]*tenantBudget
}

// tenantBudget tracks one tenant's share and metering epoch. Pacing is
// computed from bytes moved since the epoch start; SetShare rebases the
// epoch so a share change applies to future traffic, not retroactively.
type tenantBudget struct {
	share float64
	stats *memdev.Stats
	start time.Time
	base  int64
}

// newThrottle builds a throttle over a total pipeline budget.
func newThrottle(total units.Bandwidth) *Throttle {
	return &Throttle{total: total, tenants: make(map[string]*tenantBudget)}
}

// register adds a tenant metered by the given stats with a fractional
// share of the total budget.
func (th *Throttle) register(name string, stats *memdev.Stats, share float64) error {
	if stats == nil {
		return fmt.Errorf("cluster: qos: %s: nil stats", name)
	}
	if share <= 0 || share > 1 {
		return fmt.Errorf("cluster: qos: %s: share %v outside (0,1]", name, share)
	}
	th.mu.Lock()
	defer th.mu.Unlock()
	if _, ok := th.tenants[name]; ok {
		return fmt.Errorf("cluster: qos: %s already registered", name)
	}
	th.tenants[name] = &tenantBudget{
		share: share,
		stats: stats,
		start: time.Now(),
		base:  movedBytes(stats),
	}
	return nil
}

// SetShare changes a tenant's share and rebases its metering epoch, so
// the new share governs traffic from now on.
func (th *Throttle) SetShare(name string, share float64) error {
	if share <= 0 || share > 1 {
		return fmt.Errorf("cluster: qos: %s: share %v outside (0,1]", name, share)
	}
	th.mu.Lock()
	defer th.mu.Unlock()
	b, ok := th.tenants[name]
	if !ok {
		return fmt.Errorf("cluster: qos: no tenant %s", name)
	}
	b.share = share
	b.start = time.Now()
	b.base = movedBytes(b.stats)
	return nil
}

// budget returns the named tenant's budget, which its driver resolves
// once and hands to pace before each transfer unit.
func (th *Throttle) budget(name string) (*tenantBudget, error) {
	th.mu.Lock()
	defer th.mu.Unlock()
	b, ok := th.tenants[name]
	if !ok {
		return nil, fmt.Errorf("cluster: qos: no tenant %s", name)
	}
	if th.total <= 0 {
		return nil, fmt.Errorf("cluster: qos: %s has no allowance", name)
	}
	return b, nil
}

// pace blocks the tenant whose budget is b until its achieved bandwidth
// is back inside its share of the budget, returning how long it slept.
// Call it before each transfer unit (e.g. each burst): a tenant within
// budget proceeds immediately; one running ahead sleeps exactly the
// deficit. The share and epoch are read under the lock SetShare
// rebases them under.
func (th *Throttle) pace(b *tenantBudget) time.Duration {
	th.mu.Lock()
	allowed := float64(th.total) * b.share
	moved := float64(movedBytes(b.stats) - b.base)
	start := b.start
	th.mu.Unlock()
	ideal := time.Duration(moved / allowed * float64(time.Second))
	sleep := ideal - time.Since(start)
	if sleep <= 0 {
		return 0
	}
	time.Sleep(sleep)
	return sleep
}

// movedBytes sums a device's read and write byte counters.
func movedBytes(s *memdev.Stats) int64 {
	_, _, rb, wb := s.Snapshot()
	return rb + wb
}
