package cluster

import (
	"fmt"
	"time"

	"cxlpmem/internal/cxl"
	"cxlpmem/internal/fabric"
	"cxlpmem/internal/interconnect"
	"cxlpmem/internal/memdev"
	"cxlpmem/internal/units"
)

// Elastic is the pooled cluster: k hosts behind one switch and one
// memory appliance. Every host's share is a set of fabric-granted
// extents that can grow, shrink and move between hosts while traffic
// is in flight; a fixed share is the case Initial == Quota, the whole
// quota granted at construction. The host-side capacity agent — the part
// a kernel's DCD driver would play — lives here too: Grow and Shrink
// drive the full round trip (fabric grant → add-capacity event →
// mailbox accept; release request → mailbox release).
type Elastic struct {
	Fabric   *fabric.Manager
	Switch   *cxl.Switch
	MLD      *cxl.MLD
	Hosts    []*ElasticHost
	Throttle *Throttle

	media memdev.Device
	// cmdDeadline bounds each host-agent mailbox round trip (0 = wait
	// forever, the historical behaviour). See SetCommandDeadline.
	cmdDeadline time.Duration
}

// SetCommandDeadline bounds every host-agent mailbox command (the
// accept/release round trips inside Grow and Shrink) to d. A tenant
// whose device stalls past the deadline surfaces cxl.MboxTimeout as an
// error — and the device's CommandTimeouts RAS counter records it —
// instead of hanging the capacity operation forever. Zero restores
// unbounded waits.
func (e *Elastic) SetCommandDeadline(d time.Duration) { e.cmdDeadline = d }

// execute runs one host-agent mailbox command under the configured
// deadline.
func (e *Elastic) execute(mb *cxl.Mailbox, op cxl.MailboxOpcode, in []byte) ([]byte, cxl.MailboxStatus) {
	if e.cmdDeadline > 0 {
		return mb.ExecuteTimeout(op, in, e.cmdDeadline)
	}
	return mb.Execute(op, in)
}

// ElasticHost is one tenant host: its root port trained against the
// tenant's DCD endpoint through the switch, and the enumerated
// quota-sized HPA window extents appear inside.
type ElasticHost struct {
	Index int
	// Port is the trained root port: the tenant's data path, in fabric
	// HPA space, and its link state and stats.
	Port   *cxl.RootPort
	Window cxl.MemWindow
	Tenant *fabric.Tenant
}

// ElasticConfig sizes an elastic cluster.
type ElasticConfig struct {
	// Hosts is the tenant count (1..16).
	Hosts int
	// Pool is the appliance capacity shared by all tenants.
	Pool units.Size
	// Quota is each tenant's fixed device address space; active
	// capacity can never exceed it.
	Quota units.Size
	// Initial capacity granted (and accepted) per tenant; may be 0.
	Initial units.Size
	// Granule is the fabric extent unit (fabric.DefaultGranule if 0).
	Granule units.Size
	// PipelineGBps is the QoS budget the throttle shares out. It is a
	// *simulator wall-clock* budget: set it below what the host can
	// move to make shares bind. Defaults to ApplianceIPCapGBps, the
	// modelled hardware pipeline — effectively unthrottled.
	PipelineGBps float64
}

// NewElastic assembles an elastic multi-tenant pool: appliance DRAM,
// MLD, switch, fabric manager, one tenant + trained root port per
// host, equal QoS shares, and the initial capacity granted through the
// real mailbox path.
func NewElastic(cfg ElasticConfig) (*Elastic, error) {
	if cfg.Hosts < 1 || cfg.Hosts > 16 {
		return nil, fmt.Errorf("cluster: elastic host count %d outside 1..16", cfg.Hosts)
	}
	if cfg.Pool <= 0 || cfg.Pool%(4*units.CacheLine) != 0 {
		return nil, fmt.Errorf("cluster: invalid pool capacity %d", cfg.Pool)
	}
	media, err := memdev.NewDRAM(memdev.DRAMConfig{
		Name:               "appliance-ddr4",
		Rate:               3200,
		Channels:           4,
		CapacityPerChannel: cfg.Pool / 4,
		IdleLatency:        units.Nanoseconds(105),
		BatteryBacked:      true,
	})
	if err != nil {
		return nil, err
	}
	mld, err := cxl.NewMLD("appliance", media)
	if err != nil {
		return nil, err
	}
	sw := cxl.NewSwitch("pool-switch")
	mgr, err := fabric.New(sw, mld, fabric.Config{Granule: cfg.Granule})
	if err != nil {
		return nil, err
	}
	pipeline := cfg.PipelineGBps
	if pipeline == 0 {
		pipeline = ApplianceIPCapGBps
	}
	e := &Elastic{
		Fabric:   mgr,
		Switch:   sw,
		MLD:      mld,
		Throttle: newThrottle(units.GBps(pipeline)),
		media:    media,
	}
	for i := 0; i < cfg.Hosts; i++ {
		name := fmt.Sprintf("host%d", i)
		t, err := mgr.AddTenant(name, cfg.Quota)
		if err != nil {
			return nil, err
		}
		ep, ok := sw.EndpointFor(name)
		if !ok {
			return nil, fmt.Errorf("cluster: vPPB %s lost its binding", name)
		}
		link, err := interconnect.NewPCIe(fmt.Sprintf("pcie-h%d", i), interconnect.KindPCIe5, 16, units.Nanoseconds(290))
		if err != nil {
			return nil, err
		}
		rp := cxl.NewRootPort(fmt.Sprintf("rp-h%d", i), link)
		if err := rp.Attach(ep); err != nil {
			return nil, err
		}
		h, err := cxl.Enumerate(0, rp)
		if err != nil {
			return nil, err
		}
		if len(h.Windows) != 1 {
			return nil, fmt.Errorf("cluster: host %d enumerated %d windows", i, len(h.Windows))
		}
		if err := e.Throttle.register(name, t.Device().Stats(), 1/float64(cfg.Hosts)); err != nil {
			return nil, err
		}
		e.Hosts = append(e.Hosts, &ElasticHost{Index: i, Port: rp, Window: h.Windows[0], Tenant: t})
	}
	if cfg.Initial > 0 {
		for i := range e.Hosts {
			if _, err := e.Grow(i, cfg.Initial); err != nil {
				return nil, err
			}
		}
	}
	return e, nil
}

// TotalPooled reports the appliance capacity.
func (e *Elastic) TotalPooled() units.Size { return e.media.Capacity() }

// Capacity reports a host's accepted capacity.
func (e *Elastic) Capacity(i int) units.Size { return e.Hosts[i].Tenant.Active() }

// host validates an index.
func (e *Elastic) host(i int) (*ElasticHost, error) {
	if i < 0 || i >= len(e.Hosts) {
		return nil, fmt.Errorf("cluster: host %d outside 0..%d", i, len(e.Hosts)-1)
	}
	return e.Hosts[i], nil
}

// Grow grants a host size bytes of pool capacity and plays the host
// agent: it drains the add-capacity events and accepts each offered
// extent through the tenant's mailbox, so the returned extents are
// active and immediately usable through the root port.
func (e *Elastic) Grow(i int, size units.Size) ([]fabric.ExtentInfo, error) {
	h, err := e.host(i)
	if err != nil {
		return nil, err
	}
	granted, err := e.Fabric.Grant(h.Tenant.Name(), size)
	if err != nil {
		return nil, err
	}
	// Answer exactly this grant's offers; unrelated queued events (a
	// pending release request, a reclaim notice) stay queued for
	// whoever handles them.
	mine := make(map[uint64]bool, len(granted))
	for _, g := range granted {
		mine[g.Tag] = true
	}
	offers := h.Tenant.TakeEvents(func(ev fabric.Event) bool {
		return ev.Type == fabric.EventAddCapacity && mine[ev.Extent.Tag]
	})
	for _, ev := range offers {
		_, status := e.execute(h.Tenant.Mailbox(), cxl.OpAddDCDResponse, cxl.EncodeDCDResponse(ev.Extent.DCD(), true))
		if status != cxl.MboxSuccess {
			return nil, fmt.Errorf("cluster: host %d: accepting %v: %v", i, ev.Extent, status)
		}
	}
	out := granted[:0]
	for _, g := range granted {
		g.State = fabric.ExtentActive
		out = append(out, g)
	}
	return out, nil
}

// Shrink asks the fabric for a polite release of at least size bytes
// and plays the host agent answering it: every requested extent is
// returned through the mailbox. Reports the bytes actually released
// (whole extents, so possibly more than size).
func (e *Elastic) Shrink(i int, size units.Size) (units.Size, error) {
	h, err := e.host(i)
	if err != nil {
		return 0, err
	}
	asked, err := e.Fabric.RequestRelease(h.Tenant.Name(), size)
	if err != nil {
		return 0, err
	}
	// Answer exactly this request's events — one per asked tag — and
	// leave stale or unrelated events queued.
	mine := make(map[uint64]bool, len(asked))
	for _, a := range asked {
		mine[a.Tag] = true
	}
	requests := h.Tenant.TakeEvents(func(ev fabric.Event) bool {
		if ev.Type != fabric.EventReleaseRequest || !mine[ev.Extent.Tag] {
			return false
		}
		delete(mine, ev.Extent.Tag)
		return true
	})
	var released units.Size
	for _, ev := range requests {
		_, status := e.execute(h.Tenant.Mailbox(), cxl.OpReleaseDCD, cxl.EncodeDCDExtent(ev.Extent.DCD()))
		if status != cxl.MboxSuccess {
			return released, fmt.Errorf("cluster: host %d: releasing %v: %v", i, ev.Extent, status)
		}
		released += units.Size(ev.Extent.Size)
	}
	return released, nil
}

// Rebalance moves the pool toward the target per-host capacities:
// hosts above target shrink first (freeing pool space), hosts below
// then grow into it. Targets round up to the fabric granule. Because
// shrink releases whole extents, a host may land slightly under its
// pre-rebalance capacity and be topped back up by the grow phase.
func (e *Elastic) Rebalance(target []units.Size) error {
	if len(target) != len(e.Hosts) {
		return fmt.Errorf("cluster: rebalance got %d targets for %d hosts", len(target), len(e.Hosts))
	}
	g := e.Fabric.Granule()
	want := make([]units.Size, len(target))
	for i, tgt := range target {
		if tgt < 0 {
			return fmt.Errorf("cluster: rebalance target %d negative", i)
		}
		want[i] = (tgt + g - 1) / g * g
	}
	for i := range e.Hosts {
		if have := e.Capacity(i); have > want[i] {
			if _, err := e.Shrink(i, have-want[i]); err != nil {
				return err
			}
		}
	}
	for i := range e.Hosts {
		if have := e.Capacity(i); have < want[i] {
			if _, err := e.Grow(i, want[i]-have); err != nil {
				return err
			}
		}
	}
	return nil
}

// elasticBurst is the transfer unit of Drive: one maximal CXL.mem
// burst (cxl.MaxBurstLines × cxl.LineSize; untyped so it composes
// with units.Size and uint64 alike).
const elasticBurst = 64 * 64

// Drive moves total bytes through a host's root port — alternating
// maximal write and read bursts striped across the host's active
// extents, every write carrying host i's pattern byte(i+j) — pacing
// each burst with the QoS throttle, whose budget for the host it looks
// up once. Returns the achieved throughput.
// It is safe to run for many hosts concurrently; RunParallel runs one
// per host.
func (e *Elastic) Drive(i int, total units.Size) (units.Bandwidth, error) {
	h, err := e.host(i)
	if err != nil {
		return 0, err
	}
	if total < elasticBurst || total%elasticBurst != 0 {
		return 0, fmt.Errorf("cluster: drive %d bytes not a positive multiple of %d", total, elasticBurst)
	}
	exts, err := e.Fabric.Extents(h.Tenant.Name())
	if err != nil {
		return 0, err
	}
	// Usable extents: active and at least one burst long.
	spans := exts[:0]
	for _, x := range exts {
		if x.State == fabric.ExtentActive && x.Size >= elasticBurst {
			spans = append(spans, x)
		}
	}
	if len(spans) == 0 {
		return 0, fmt.Errorf("cluster: host %d has no active extent to drive", i)
	}
	budget, err := e.Throttle.budget(h.Tenant.Name())
	if err != nil {
		return 0, err
	}
	// Reads land in their own half of buf, so every write burst carries
	// the host's pattern however many bursts it has read.
	buf := make([]byte, 2*elasticBurst)
	out, in := buf[:elasticBurst], buf[elasticBurst:]
	for j := range out {
		out[j] = byte(i + j)
	}
	t0 := time.Now()
	var moved units.Size
	for n := 0; moved < total; n++ {
		x := spans[n%len(spans)]
		// Cycle within the extent (clipped to 1 MiB so the run measures
		// the wire, not first-touch page materialisation).
		span := x.Size &^ (elasticBurst - 1)
		if span > 1<<20 {
			span = 1 << 20
		}
		addr := h.Window.Base + x.DPA + uint64(n)*elasticBurst%span
		e.Throttle.pace(budget)
		if n%2 == 0 {
			err = h.Port.WriteBurst(addr, out)
		} else {
			err = h.Port.ReadBurst(addr, in)
		}
		if err != nil {
			return 0, err
		}
		moved += elasticBurst
	}
	return units.RateOf(total, time.Since(t0)), nil
}

// Describe renders the elastic fabric.
func (e *Elastic) Describe() string {
	s := fmt.Sprintf("elastic CXL pool: %d host(s), appliance %v, %v unallocated\n",
		len(e.Hosts), e.TotalPooled(), e.Fabric.Remaining())
	for _, h := range e.Hosts {
		s += fmt.Sprintf("  host%d: window [%#x,%#x), %v active\n",
			h.Index, h.Window.Base, h.Window.Base+h.Window.Size, h.Tenant.Active())
	}
	return s
}
