package fabric

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"cxlpmem/internal/memdev"
	"cxlpmem/internal/units"
)

// tenantMedia is the media a tenant's DCD endpoint exposes: a fixed
// device-physical address space of quota bytes, sparsely backed by the
// extents the fabric manager has granted. Each active extent maps a
// tenant-DPA range onto a range of the pool (MLD) media; accesses to
// unmapped holes fail, accesses to revoked extents fail with poison.
//
// The mapping table is published as an immutable sorted slice through
// an atomic pointer: the data path (every CXL.mem line and burst the
// tenant's root port issues) walks it lock-free, while the manager
// swaps in a new table on every grant/release/reclaim — mid-flight
// accesses see either the old capacity layout or the new, never a torn
// mix. This is the same snapshot discipline the port and device layers
// use for their hot-path configuration.
type tenantMedia struct {
	name  string
	pool  memdev.Device // the MLD's backing media
	quota uint64
	table atomic.Pointer[[]mapping]
	stats memdev.Stats
	// inflight counts accesses between table load and completion; the
	// manager publishes a new table and then drains it before scrubbing
	// or re-granting pool bytes, so a write that resolved through the
	// old layout can never land on capacity that has left the tenant.
	inflight atomic.Int64
}

// mapping is one granted extent as the data path sees it.
type mapping struct {
	dpa      uint64 // tenant device address
	poolBase uint64 // address in the pool media
	size     uint64
	pool     memdev.Device // the pool backing this extent
	revoked  bool
	// frozen marks an extent mid-migration between pools: reads serve
	// the (stable) current copy, writes back off with errFrozen and
	// retry until the re-homed table is published.
	frozen bool
}

// errFrozen is the internal write-path sentinel for a frozen extent.
// Returning it immediately — instead of spinning inside access — lets
// the access release its inflight count, so the manager's drain during
// a migration cannot deadlock against a blocked writer.
var errFrozen = errors.New("fabric: extent frozen for migration")

// PoisonError reports an access to a revoked (forcibly reclaimed)
// extent: the device returns the CXL poison indication instead of data.
type PoisonError struct {
	Device string
	DPA    uint64
}

func (e *PoisonError) Error() string {
	return fmt.Sprintf("fabric: %s: DPA %#x poisoned (extent revoked)", e.Device, e.DPA)
}

// UnmappedError reports an access to a hole in the tenant's address
// space — no extent is granted there.
type UnmappedError struct {
	Device string
	DPA    uint64
}

func (e *UnmappedError) Error() string {
	return fmt.Sprintf("fabric: %s: DPA %#x not backed by a granted extent", e.Device, e.DPA)
}

func newTenantMedia(name string, pool memdev.Device, quota uint64) *tenantMedia {
	d := &tenantMedia{name: name, pool: pool, quota: quota}
	d.table.Store(&[]mapping{})
	return d
}

func (d *tenantMedia) Name() string            { return d.name }
func (d *tenantMedia) Capacity() units.Size    { return units.Size(d.quota) }
func (d *tenantMedia) Persistent() bool        { return d.pool.Persistent() }
func (d *tenantMedia) Profile() memdev.Profile { return d.pool.Profile() }
func (d *tenantMedia) Stats() *memdev.Stats    { return &d.stats }
func (d *tenantMedia) PowerCycle()             { d.pool.PowerCycle() }

// setTable publishes a new mapping table; the manager builds it sorted
// by DPA under its own lock.
func (d *tenantMedia) setTable(t []mapping) { d.table.Store(&t) }

// drain blocks until every access that may have loaded a previous
// mapping table has completed — a grace period. An access beginning
// after the drain loads the table published before it (the counter and
// pointer are both sequentially consistent atomics), so post-drain the
// retired extents are unreachable. Accesses never take the manager
// lock, so draining under it cannot deadlock; the wait is bounded by
// one media access.
func (d *tenantMedia) drain() {
	for d.inflight.Load() != 0 {
		runtime.Gosched()
	}
}

// find returns the mapping containing dpa, or nil. The table is small
// (one entry per granted extent) and sorted; a linear walk beats a
// binary search at these sizes and stays allocation-free.
func (d *tenantMedia) find(t []mapping, dpa uint64) *mapping {
	for i := range t {
		if dpa < t[i].dpa {
			return nil
		}
		if dpa < t[i].dpa+t[i].size {
			return &t[i]
		}
	}
	return nil
}

// revokedIn reports whether any byte of [dpa, dpa+n) falls in a
// revoked extent — the manager's half of the tenant endpoint's poison
// probe.
func (d *tenantMedia) revokedIn(dpa, n uint64) bool {
	for _, m := range *d.table.Load() {
		if m.revoked && m.dpa < dpa+n && dpa < m.dpa+m.size {
			return true
		}
	}
	return false
}

// access walks the span across its covering extents, issuing one pool
// access per covered chunk. A span touching a hole or a revoked extent
// fails at that point; like any multi-extent transfer, chunks already
// moved stay moved (the CXL burst layer above validates poison for the
// whole burst up front, so bursts still fail whole).
func (d *tenantMedia) access(p []byte, off int64, write bool) error {
	if off < 0 || uint64(off)+uint64(len(p)) > d.quota {
		return &memdev.AddrError{Device: d.name, Off: off, Len: len(p), Cap: d.Capacity()}
	}
	d.inflight.Add(1)
	defer d.inflight.Add(-1)
	t := *d.table.Load()
	dpa := uint64(off)
	for len(p) > 0 {
		m := d.find(t, dpa)
		if m == nil {
			return &UnmappedError{Device: d.name, DPA: dpa}
		}
		if m.revoked {
			return &PoisonError{Device: d.name, DPA: dpa}
		}
		if write && m.frozen {
			return errFrozen
		}
		n := m.dpa + m.size - dpa
		if uint64(len(p)) < n {
			n = uint64(len(p))
		}
		pool := m.pool
		if pool == nil {
			pool = d.pool
		}
		poolOff := int64(m.poolBase + (dpa - m.dpa))
		var err error
		if write {
			err = pool.WriteAt(p[:n], poolOff)
		} else {
			err = pool.ReadAt(p[:n], poolOff)
		}
		if err != nil {
			return err
		}
		p = p[n:]
		dpa += n
	}
	return nil
}

func (d *tenantMedia) ReadAt(p []byte, off int64) error {
	if err := d.access(p, off, false); err != nil {
		return err
	}
	d.stats.Reads.Add(1)
	d.stats.BytesRead.Add(int64(len(p)))
	d.stats.TouchHeat(off, len(p))
	return nil
}

func (d *tenantMedia) WriteAt(p []byte, off int64) error {
	// A frozen extent (mid-migration) stalls the writer here, outside
	// the inflight window, and retries from the top: each attempt
	// reloads the table, so the write lands on the re-homed extent the
	// moment it is published.
	for {
		err := d.access(p, off, true)
		if err == nil {
			break
		}
		if errors.Is(err, errFrozen) {
			runtime.Gosched()
			continue
		}
		return err
	}
	d.stats.Writes.Add(1)
	d.stats.BytesWrite.Add(int64(len(p)))
	d.stats.TouchHeat(off, len(p))
	return nil
}

// Committed implements memdev.RangeLister over the granted, non-revoked
// extents — the footprint the RAS patrol scrubber walks for a tenant.
func (d *tenantMedia) Committed() []memdev.Range {
	t := *d.table.Load()
	var out []memdev.Range
	for _, m := range t {
		if m.revoked {
			continue
		}
		if n := len(out); n > 0 && out[n-1].Base+out[n-1].Size == m.dpa {
			out[n-1].Size += m.size
		} else {
			out = append(out, memdev.Range{Base: m.dpa, Size: m.size})
		}
	}
	return out
}
