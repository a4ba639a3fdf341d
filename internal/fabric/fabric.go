// Package fabric implements a CXL fabric manager with Dynamic Capacity
// Device (DCD) semantics over the switch/MLD layer — the control plane
// the paper's §2 pooling prototype lacks and its §6 future work calls
// for. The manager owns a CXL 2.0 switch and the MLD behind it. Each
// tenant gets a DCD endpoint bound through its own vPPB: a Type-3
// device whose address space is a fixed quota, sparsely backed by
// *extents* the manager grants from the shared pool.
//
// The capacity lifecycle round-trips through the real device mailbox,
// as the Linux DCD path would drive it:
//
//	Grant          — the manager reserves pool capacity, maps it into
//	                 the tenant's address space as a pending extent and
//	                 queues an add-capacity event.
//	Accept/Reject  — the host answers with OpAddDCDResponse through the
//	                 tenant's mailbox; accepted extents become live
//	                 memory reachable through the root-port data path.
//	Release        — the host returns an extent with OpReleaseDCD; the
//	                 manager scrubs it and coalesces it back into the
//	                 pool's free space.
//	Forced reclaim — an unresponsive tenant's extents are revoked
//	                 immediately: the pool bytes are scrubbed and
//	                 reusable at once, and the tenant's subsequent
//	                 accesses fail with poison until it acknowledges
//	                 the reclaim by releasing the revoked extents.
//
// Control-plane state (tenants, extents, both extent allocators) is
// guarded by one manager mutex; the data plane never takes it — tenant
// capacity layouts are published to the endpoints as immutable
// snapshots (see tenantMedia), so grants and reclaims proceed while
// other tenants' traffic is in flight.
package fabric

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"cxlpmem/internal/cxl"
	"cxlpmem/internal/memdev"
	"cxlpmem/internal/ras"
	"cxlpmem/internal/units"
)

// DefaultGranule is the default extent allocation unit: 2 MiB, one
// huge page, matching the tiering migration granule.
const DefaultGranule = 2 * units.MiB

// Config tunes the manager.
type Config struct {
	// Granule is the extent allocation unit; grant sizes round up to
	// it. DefaultGranule when zero.
	Granule units.Size
}

// ExtentState tracks an extent through its lifecycle.
type ExtentState int

const (
	// ExtentPending — granted by the manager, not yet accepted by the
	// host; not reachable through the data path.
	ExtentPending ExtentState = iota
	// ExtentActive — accepted; live memory.
	ExtentActive
	// ExtentRevoked — forcibly reclaimed; the pool bytes are reusable
	// but the tenant's address range answers with poison until the
	// host acknowledges by releasing the extent.
	ExtentRevoked
)

func (s ExtentState) String() string {
	switch s {
	case ExtentPending:
		return "pending"
	case ExtentActive:
		return "active"
	case ExtentRevoked:
		return "revoked"
	default:
		return fmt.Sprintf("ExtentState(%d)", int(s))
	}
}

// ExtentInfo describes one granted extent.
type ExtentInfo struct {
	// Tenant owning the extent.
	Tenant string
	// Tag is the manager's identifier, echoed in mailbox responses.
	Tag uint64
	// DPA is the extent's base in the tenant's device address space.
	DPA uint64
	// PoolBase is the extent's base in the pool (MLD) address space.
	PoolBase uint64
	// Size in bytes.
	Size uint64
	// State of the extent.
	State ExtentState
	// Pool names the MLD backing the extent (the primary pool unless
	// the extent has been evacuated onto a spare).
	Pool string

	// frozen blocks writes while the extent's bytes migrate between
	// pools; readers keep seeing the (stable) source copy. Internal to
	// EvacuatePool.
	frozen bool
}

// DCD converts to the mailbox wire form.
func (e ExtentInfo) DCD() cxl.DCDExtent {
	return cxl.DCDExtent{Base: e.DPA, Size: e.Size, Tag: e.Tag}
}

func (e ExtentInfo) String() string {
	return fmt.Sprintf("ext#%d %s dpa[%#x+%#x) pool[%#x+%#x) %s",
		e.Tag, e.Tenant, e.DPA, e.DPA+e.Size, e.PoolBase, e.PoolBase+e.Size, e.State)
}

// EventType classifies a capacity event delivered to a host.
type EventType int

const (
	// EventAddCapacity — an extent is offered; answer with
	// OpAddDCDResponse.
	EventAddCapacity EventType = iota
	// EventReleaseRequest — the manager politely asks for an extent
	// back; answer with OpReleaseDCD.
	EventReleaseRequest
	// EventForcedReclaim — the extent was revoked; accesses now poison.
	// Acknowledge with OpReleaseDCD.
	EventForcedReclaim
)

func (t EventType) String() string {
	switch t {
	case EventAddCapacity:
		return "add-capacity"
	case EventReleaseRequest:
		return "release-request"
	case EventForcedReclaim:
		return "forced-reclaim"
	default:
		return fmt.Sprintf("EventType(%d)", int(t))
	}
}

// Event is one capacity event on a tenant's queue.
type Event struct {
	Type   EventType
	Extent ExtentInfo
}

func (ev Event) String() string { return ev.Type.String() + " " + ev.Extent.String() }

// Manager is the fabric manager.
type Manager struct {
	sw      *cxl.Switch
	mld     *cxl.MLD // primary pool, == pools[0].mld
	granule uint64

	mu      sync.Mutex
	pools   []*pool
	tenants map[string]*Tenant
	order   []string // registration order, for deterministic listings
	nextTag uint64

	// Cumulative control-plane counters, exposed via RegisterMetrics.
	// Atomics so the telemetry gather never takes m.mu.
	grantedExtents   atomic.Int64
	grantedBytes     atomic.Int64
	releasedExtents  atomic.Int64
	reclaimedExtents atomic.Int64
	evacuatedExtents atomic.Int64
	evacuatedBytes   atomic.Int64
}

// pool is one MLD the manager can grant from. Grants prefer pools in
// registration order and skip unhealthy ones; EvacuatePool marks a
// pool unhealthy and migrates its extents to the others.
type pool struct {
	name    string
	mld     *cxl.MLD
	healthy bool
}

// Tenant is one host's seat on the fabric: a DCD endpoint, its
// mailbox, its capacity extents and its event queue.
type Tenant struct {
	name  string
	quota uint64
	mgr   *Manager
	dev   *tenantMedia
	mbox  *cxl.Mailbox
	dsp   string

	// Guarded by mgr.mu:
	space    *cxl.ExtentAllocator // the tenant's device address space
	extents  map[uint64]*ExtentInfo
	memTypes MemTypes // memory-technology request mask for new grants

	// Event queue, own lock (never held while calling out).
	evMu  sync.Mutex
	queue []Event
}

// New builds a fabric manager over an existing switch and MLD. The
// manager assumes ownership of the MLD's free space: it allocates every
// extent of it.
func New(sw *cxl.Switch, mld *cxl.MLD, cfg Config) (*Manager, error) {
	if sw == nil || mld == nil {
		return nil, fmt.Errorf("fabric: nil switch or MLD")
	}
	granule := cfg.Granule
	if granule == 0 {
		granule = DefaultGranule
	}
	if granule <= 0 || granule%units.CacheLine != 0 {
		return nil, fmt.Errorf("fabric: granule %d not a positive line multiple", granule)
	}
	return &Manager{
		sw:      sw,
		mld:     mld,
		granule: uint64(granule),
		pools:   []*pool{{name: mld.Name(), mld: mld, healthy: true}},
		tenants: make(map[string]*Tenant),
		nextTag: 1,
	}, nil
}

// AddPool registers an additional MLD the manager may grant from — the
// spare capacity evacuation migrates onto.
func (m *Manager) AddPool(mld *cxl.MLD) error {
	if mld == nil {
		return fmt.Errorf("fabric: nil pool")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range m.pools {
		if p.name == mld.Name() {
			return fmt.Errorf("fabric: pool %s already registered", mld.Name())
		}
	}
	m.pools = append(m.pools, &pool{name: mld.Name(), mld: mld, healthy: true})
	return nil
}

// Pools lists pool names in registration order (primary first).
func (m *Manager) Pools() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, len(m.pools))
	for i, p := range m.pools {
		out[i] = p.name
	}
	return out
}

// PoolMedia returns the named pool's backing media — what the RAS
// patrol scrubber walks for appliance-side latent faults.
func (m *Manager) PoolMedia(name string) (memdev.Device, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.poolLocked(name)
	if p == nil {
		return nil, false
	}
	return p.mld.Media(), true
}

// poolHealthy reports whether the named pool accepts grants.
func (m *Manager) poolHealthy(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.poolLocked(name)
	return p != nil && p.healthy
}

func (m *Manager) poolLocked(name string) *pool {
	for _, p := range m.pools {
		if p.name == name {
			return p
		}
	}
	return nil
}

// Granule reports the extent allocation unit.
func (m *Manager) Granule() units.Size { return units.Size(m.granule) }

// Remaining reports unreserved capacity summed over healthy pools.
func (m *Manager) Remaining() units.Size {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.remainingLocked()
}

func (m *Manager) remainingLocked() units.Size {
	var n units.Size
	for _, p := range m.pools {
		if p.healthy {
			n += p.mld.Remaining()
		}
	}
	return n
}

// allocAnyLocked reserves up to size bytes from the first healthy pool
// with free space whose media kind the mask allows (MemAny matches
// every pool).
func (m *Manager) allocAnyLocked(size units.Size, mask MemTypes) (cxl.Extent, *pool, bool) {
	for _, p := range m.pools {
		if !p.healthy || !mask.allows(p.mld.Media().Profile().Kind) {
			continue
		}
		if ext, ok := p.mld.AllocExtentAny(size); ok {
			return ext, p, true
		}
	}
	return cxl.Extent{}, nil, false
}

// AddTenant registers a tenant with a fixed address-space quota,
// builds its DCD endpoint (device + mailbox + poison hooks) and binds
// it through the switch on a vPPB named after the tenant. The tenant
// starts with no capacity; everything arrives through Grant.
func (m *Manager) AddTenant(name string, quota units.Size) (*Tenant, error) {
	if name == "" {
		return nil, fmt.Errorf("fabric: empty tenant name")
	}
	if quota <= 0 || uint64(quota)%m.granule != 0 {
		return nil, fmt.Errorf("fabric: tenant %s: quota %v not a positive multiple of granule %v", name, quota, m.Granule())
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.tenants[name]; ok {
		return nil, fmt.Errorf("fabric: tenant %s already registered", name)
	}
	dev := newTenantMedia("dcd-"+name, m.mld.Media(), uint64(quota))
	ep, err := cxl.NewType3("dcd-"+name, cxl.CXLVendorID, 0x0DC0, dev)
	if err != nil {
		return nil, err
	}
	mbox, err := cxl.NewMailbox(ep, "fm-1.0")
	if err != nil {
		return nil, err
	}
	space, err := cxl.NewExtentAllocator(quota)
	if err != nil {
		return nil, err
	}
	t := &Tenant{
		name:    name,
		quota:   uint64(quota),
		mgr:     m,
		dev:     dev,
		mbox:    mbox,
		dsp:     "dsp-" + name,
		space:   space,
		extents: make(map[uint64]*ExtentInfo),
	}
	mbox.SetDCD(&tenantDCD{t})
	// RAS hook: revoked extents answer with poison, composed with the
	// mailbox's injected-poison list. Installed after NewMailbox so the
	// combined probe replaces the mailbox's own registration.
	ep.SetPoisonChecker(func(dpa, n uint64) bool {
		return dev.revokedIn(dpa, n) || mbox.HasPoisonIn(dpa, n)
	})
	if err := m.sw.AddDownstream(t.dsp, ep); err != nil {
		return nil, err
	}
	if err := m.sw.Bind(name, t.dsp); err != nil {
		_ = m.sw.RemoveDownstream(t.dsp)
		return nil, err
	}
	m.tenants[name] = t
	m.order = append(m.order, name)
	return t, nil
}

// tenant looks up a registered tenant.
func (m *Manager) tenant(name string) (*Tenant, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.tenants[name]
	return t, ok
}

// tenantNames lists tenant names in registration order.
func (m *Manager) tenantNames() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, len(m.order))
	copy(out, m.order)
	return out
}

// committedLocked sums the tenant-space bytes all extents of t hold
// (pending, active and revoked alike — revoked extents still occupy
// the tenant's address space until acknowledged).
func committedLocked(t *Tenant) uint64 {
	var n uint64
	for _, e := range t.extents {
		n += e.Size
	}
	return n
}

// Grant reserves size bytes (rounded up to the granule) of pool
// capacity for a tenant as one or more pending extents, and queues an
// add-capacity event per extent. A fragmented pool yields several
// smaller extents; if the demand cannot be met in full, nothing is
// reserved. The grant becomes usable memory only after the host
// accepts it through the mailbox.
func (m *Manager) Grant(tenant string, size units.Size) ([]ExtentInfo, error) {
	if size <= 0 {
		return nil, fmt.Errorf("fabric: grant of %d bytes", size)
	}
	want := (uint64(size) + m.granule - 1) / m.granule * m.granule
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.tenants[tenant]
	if !ok {
		return nil, fmt.Errorf("fabric: no tenant %s", tenant)
	}
	if committedLocked(t)+want > t.quota {
		return nil, fmt.Errorf("fabric: tenant %s: grant %v exceeds quota %v (%v committed)",
			tenant, units.Size(want), units.Size(t.quota), units.Size(committedLocked(t)))
	}
	var granted []ExtentInfo
	rollback := func() {
		for _, e := range granted {
			if err := m.poolLocked(e.Pool).mld.ReleaseExtent(cxl.Extent{Base: e.PoolBase, Size: e.Size}); err != nil {
				panic(fmt.Sprintf("fabric: grant rollback: %v", err))
			}
			if err := t.space.Free(cxl.Extent{Base: e.DPA, Size: e.Size}); err != nil {
				panic(fmt.Sprintf("fabric: grant rollback: %v", err))
			}
			delete(t.extents, e.Tag)
		}
	}
	for remaining := want; remaining > 0; {
		spaceExt, ok := t.space.AllocAny(units.Size(remaining))
		if !ok {
			rollback()
			return nil, fmt.Errorf("fabric: tenant %s: address space exhausted", tenant)
		}
		poolExt, pl, ok := m.allocAnyLocked(units.Size(spaceExt.Size), t.memTypes)
		if !ok {
			if err := t.space.Free(spaceExt); err != nil {
				panic(fmt.Sprintf("fabric: grant rollback: %v", err))
			}
			rollback()
			return nil, fmt.Errorf("fabric: pool exhausted granting %v to %s (%v free, memory types %v)",
				units.Size(want), tenant, m.remainingLocked(), t.memTypes)
		}
		if poolExt.Size < spaceExt.Size {
			// Hand the unused tail of the address-space reservation back.
			if err := t.space.Free(cxl.Extent{Base: spaceExt.Base + poolExt.Size, Size: spaceExt.Size - poolExt.Size}); err != nil {
				panic(fmt.Sprintf("fabric: grant split: %v", err))
			}
			spaceExt.Size = poolExt.Size
		}
		info := &ExtentInfo{
			Tenant:   tenant,
			Tag:      m.nextTag,
			DPA:      spaceExt.Base,
			PoolBase: poolExt.Base,
			Size:     poolExt.Size,
			State:    ExtentPending,
			Pool:     pl.name,
		}
		m.nextTag++
		t.extents[info.Tag] = info
		granted = append(granted, *info)
		remaining -= poolExt.Size
	}
	m.grantedExtents.Add(int64(len(granted)))
	m.grantedBytes.Add(int64(want))
	for _, e := range granted {
		t.push(Event{Type: EventAddCapacity, Extent: e})
	}
	return granted, nil
}

// publishTableLocked rebuilds and publishes a tenant's data-path
// mapping table from its active and revoked extents; caller holds m.mu.
func publishTableLocked(t *Tenant) {
	m := t.mgr
	table := make([]mapping, 0, len(t.extents))
	for _, e := range t.extents {
		if e.State == ExtentPending {
			continue
		}
		table = append(table, mapping{
			dpa:      e.DPA,
			poolBase: e.PoolBase,
			size:     e.Size,
			pool:     m.poolLocked(e.Pool).mld.Media(),
			revoked:  e.State == ExtentRevoked,
			frozen:   e.frozen,
		})
	}
	sort.Slice(table, func(a, b int) bool { return table[a].dpa < table[b].dpa })
	t.dev.setTable(table)
}

// lookupLocked validates a mailbox-supplied extent reference against
// the manager's record.
func lookupLocked(t *Tenant, ext cxl.DCDExtent) (*ExtentInfo, error) {
	rec, ok := t.extents[ext.Tag]
	if !ok {
		return nil, fmt.Errorf("fabric: tenant %s: unknown extent tag %d", t.name, ext.Tag)
	}
	if rec.DPA != ext.Base || rec.Size != ext.Size {
		return nil, fmt.Errorf("fabric: tenant %s: extent #%d is dpa[%#x+%#x), host said [%#x+%#x)",
			t.name, ext.Tag, rec.DPA, rec.DPA+rec.Size, ext.Base, ext.Base+ext.Size)
	}
	return rec, nil
}

// addCapacityResponse completes a pending grant (mailbox path).
func (m *Manager) addCapacityResponse(t *Tenant, ext cxl.DCDExtent, accept bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, err := lookupLocked(t, ext)
	if err != nil {
		return err
	}
	if rec.State != ExtentPending {
		return fmt.Errorf("fabric: tenant %s: extent #%d is %s, not pending", t.name, rec.Tag, rec.State)
	}
	if !accept {
		return m.dropLocked(t, rec, false)
	}
	rec.State = ExtentActive
	publishTableLocked(t)
	return nil
}

// releaseCapacity returns an extent to the pool (mailbox path). An
// active extent is scrubbed and freed; a revoked extent's pool bytes
// were already reclaimed, so releasing it just clears the poisoned
// tombstone from the tenant's address space.
func (m *Manager) releaseCapacity(t *Tenant, ext cxl.DCDExtent) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, err := lookupLocked(t, ext)
	if err != nil {
		return err
	}
	switch rec.State {
	case ExtentActive:
		if err := m.dropLocked(t, rec, true); err != nil {
			return err
		}
		m.releasedExtents.Add(1)
		return nil
	case ExtentRevoked:
		if err := t.space.Free(cxl.Extent{Base: rec.DPA, Size: rec.Size}); err != nil {
			return err
		}
		delete(t.extents, rec.Tag)
		publishTableLocked(t)
		m.releasedExtents.Add(1)
		return nil
	default:
		return fmt.Errorf("fabric: tenant %s: extent #%d is %s, not releasable", t.name, rec.Tag, rec.State)
	}
}

// dropLocked removes an extent whose pool bytes are still reserved
// (pending or active), scrubbing them if they were ever mapped. Order
// matters: the mapping is unpublished and in-flight accesses drained
// *before* the bytes are scrubbed and returned to the pool, so a
// straggling write through the old table cannot dirty capacity that a
// concurrent grant hands to another tenant.
func (m *Manager) dropLocked(t *Tenant, rec *ExtentInfo, scrub bool) error {
	pl := m.poolLocked(rec.Pool)
	delete(t.extents, rec.Tag)
	publishTableLocked(t)
	t.dev.drain()
	if scrub {
		// One scrub implementation for free/forced-reclaim and the RAS
		// patrol repair path: ras.ZeroFill, so the two cannot diverge.
		if err := ras.ZeroFill(pl.mld.Media(), rec.PoolBase, rec.Size); err != nil {
			return err
		}
	}
	if err := pl.mld.ReleaseExtent(cxl.Extent{Base: rec.PoolBase, Size: rec.Size}); err != nil {
		return err
	}
	return t.space.Free(cxl.Extent{Base: rec.DPA, Size: rec.Size})
}

// RequestRelease queues polite release-request events covering at
// least size bytes of a tenant's active extents (most recent first).
// The host is expected to answer each with OpReleaseDCD; no state
// changes until it does.
func (m *Manager) RequestRelease(tenant string, size units.Size) ([]ExtentInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.tenants[tenant]
	if !ok {
		return nil, fmt.Errorf("fabric: no tenant %s", tenant)
	}
	active := activeSortedLocked(t)
	var asked []ExtentInfo
	var total uint64
	for i := len(active) - 1; i >= 0 && total < uint64(size); i-- {
		asked = append(asked, active[i])
		total += active[i].Size
	}
	if total < uint64(size) {
		return nil, fmt.Errorf("fabric: tenant %s holds %v active, cannot release %v",
			tenant, units.Size(total), size)
	}
	for _, e := range asked {
		t.push(Event{Type: EventReleaseRequest, Extent: e})
	}
	return asked, nil
}

// ForceReclaim revokes every active extent of an unresponsive tenant:
// the pool bytes are scrubbed and immediately re-grantable, and the
// tenant's accesses to the revoked ranges fail with poison until it
// acknowledges each reclaim with OpReleaseDCD. Pending extents are
// cancelled outright. Returns the revoked extents.
func (m *Manager) ForceReclaim(tenant string) ([]ExtentInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.tenants[tenant]
	if !ok {
		return nil, fmt.Errorf("fabric: no tenant %s", tenant)
	}
	// Revoke first — the new table poisons the ranges — and drain
	// in-flight accesses before scrubbing and freeing the pool bytes,
	// so no straggling write through the old layout survives into a
	// re-grant.
	var revoked []ExtentInfo
	for _, rec := range sortedLocked(t) {
		switch rec.State {
		case ExtentPending:
			if err := m.dropLocked(t, t.extents[rec.Tag], false); err != nil {
				return revoked, err
			}
		case ExtentActive:
			live := t.extents[rec.Tag]
			live.State = ExtentRevoked
			revoked = append(revoked, *live)
		}
	}
	publishTableLocked(t)
	t.dev.drain()
	for _, e := range revoked {
		pl := m.poolLocked(e.Pool)
		if err := ras.ZeroFill(pl.mld.Media(), e.PoolBase, e.Size); err != nil {
			return revoked, err
		}
		if err := pl.mld.ReleaseExtent(cxl.Extent{Base: e.PoolBase, Size: e.Size}); err != nil {
			return revoked, err
		}
	}
	m.reclaimedExtents.Add(int64(len(revoked)))
	for _, e := range revoked {
		t.push(Event{Type: EventForcedReclaim, Extent: e})
	}
	return revoked, nil
}

// sortedLocked snapshots a tenant's extents ordered by DPA.
func sortedLocked(t *Tenant) []ExtentInfo {
	out := make([]ExtentInfo, 0, len(t.extents))
	for _, e := range t.extents {
		out = append(out, *e)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].DPA < out[b].DPA })
	return out
}

func activeSortedLocked(t *Tenant) []ExtentInfo {
	all := sortedLocked(t)
	out := all[:0]
	for _, e := range all {
		if e.State == ExtentActive {
			out = append(out, e)
		}
	}
	return out
}

// Extents snapshots a tenant's extents ordered by DPA.
func (m *Manager) Extents(tenant string) ([]ExtentInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.tenants[tenant]
	if !ok {
		return nil, fmt.Errorf("fabric: no tenant %s", tenant)
	}
	return sortedLocked(t), nil
}

// Describe renders the fabric state.
func (m *Manager) Describe() string {
	m.mu.Lock()
	names := make([]string, len(m.order))
	copy(names, m.order)
	m.mu.Unlock()
	s := fmt.Sprintf("fabric manager: switch %s, pool %s (%v free of %v), granule %v, %d tenant(s)\n",
		m.sw.Name(), m.mld.Name(), m.mld.Remaining(), m.mld.Media().Capacity(), m.Granule(), len(names))
	for _, name := range names {
		t, ok := m.tenant(name)
		if !ok {
			continue
		}
		exts, _ := m.Extents(name)
		s += fmt.Sprintf("  %s: quota %v, %v active in %d extent(s), vPPB %q -> %s\n",
			name, units.Size(t.quota), t.Active(), len(exts), name, t.dsp)
		for _, e := range exts {
			s += "    " + e.String() + "\n"
		}
	}
	return s
}

// tenantDCD adapts a tenant to the mailbox's DCDBackend — the commands
// a host issues against its own device land here.
type tenantDCD struct{ t *Tenant }

func (b *tenantDCD) DCDConfig() cxl.DCDConfig {
	return cxl.DCDConfig{TotalCapacity: b.t.quota, Granule: b.t.mgr.granule}
}

func (b *tenantDCD) DCDExtents() []cxl.DCDExtent {
	b.t.mgr.mu.Lock()
	defer b.t.mgr.mu.Unlock()
	var out []cxl.DCDExtent
	for _, e := range sortedLocked(b.t) {
		if e.State != ExtentPending {
			out = append(out, e.DCD())
		}
	}
	return out
}

func (b *tenantDCD) AddCapacityResponse(ext cxl.DCDExtent, accept bool) error {
	return b.t.mgr.addCapacityResponse(b.t, ext, accept)
}

func (b *tenantDCD) ReleaseCapacity(ext cxl.DCDExtent) error {
	return b.t.mgr.releaseCapacity(b.t, ext)
}

// --- Tenant accessors ----------------------------------------------------

// Name returns the tenant name (also its vPPB on the switch).
func (t *Tenant) Name() string { return t.name }

// Mailbox returns the tenant device's command mailbox — the host-side
// handle for accepting and releasing capacity.
func (t *Tenant) Mailbox() *cxl.Mailbox { return t.mbox }

// Device returns the tenant's media view: quota-sized, extent-backed.
// Its Stats count every byte the tenant moves — the QoS throttle's
// input.
func (t *Tenant) Device() memdev.Device { return t.dev }

// Active sums the tenant's accepted capacity.
func (t *Tenant) Active() units.Size {
	t.mgr.mu.Lock()
	defer t.mgr.mu.Unlock()
	var n uint64
	for _, e := range t.extents {
		if e.State == ExtentActive {
			n += e.Size
		}
	}
	return units.Size(n)
}

// push queues an event.
func (t *Tenant) push(ev Event) {
	t.evMu.Lock()
	t.queue = append(t.queue, ev)
	t.evMu.Unlock()
}

// Events drains the tenant's pending capacity events.
func (t *Tenant) Events() []Event {
	t.evMu.Lock()
	defer t.evMu.Unlock()
	out := t.queue
	t.queue = nil
	return out
}

// TakeEvents removes and returns the queued events matching the
// filter, leaving everything else queued in order — for host agents
// that answer one operation's events without consuming (and silently
// dropping) unrelated ones. The filter must not call back into the
// tenant or manager.
func (t *Tenant) TakeEvents(match func(Event) bool) []Event {
	t.evMu.Lock()
	defer t.evMu.Unlock()
	var taken []Event
	rest := t.queue[:0]
	for _, ev := range t.queue {
		if match(ev) {
			taken = append(taken, ev)
		} else {
			rest = append(rest, ev)
		}
	}
	t.queue = rest
	return taken
}
