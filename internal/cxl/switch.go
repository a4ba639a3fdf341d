package cxl

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cxlpmem/internal/memdev"
	"cxlpmem/internal/units"
)

// CXL switching and pooling (paper §1.3: "CXL 2.0 expands the
// specification – among other capabilities – to memory pools using CXL
// switches on a device level"). A Switch exposes virtual PCIe-to-PCIe
// bridges (vPPBs) upstream — one per host — and binds each to a
// downstream endpoint. A Multi-Logical Device (MLD) is the pooled
// media behind them: the fabric manager allocates its capacity as
// extents and maps them into per-host dynamic-capacity endpoints.

// Switch is a CXL 2.0 switch. Binding mutations (Bind/Unbind/Rebind,
// AddDownstream) are serialised by a mutex and publish an immutable
// routing snapshot; EndpointFor — the per-transaction lookup — reads
// the snapshot lock-free, so rebinding one vPPB never stalls traffic
// flowing through the others.
type Switch struct {
	name string

	mu         sync.Mutex
	downstream map[string]Endpoint // port name -> device
	bindings   map[string]string   // vPPB (host port) -> downstream port
	// shared marks downstream ports bound with BindShared: many vPPBs
	// may reach them at once (CXL 3.0 shared-FAM semantics), unlike the
	// exclusive single-logical-device bindings Bind enforces.
	shared map[string]bool
	// view is the published vPPB -> endpoint routing table.
	view atomic.Pointer[map[string]Endpoint]
	// snoopers is the published vPPB -> host snoop handler table for the
	// CXL 3.0 back-invalidate channel (see Snoop).
	snoopers atomic.Pointer[map[string]Snooper]
	// snoopTrace, when set, observes every BISnp/BIRsp flit crossing the
	// switch — the telemetry plane's always-on snoop capture.
	snoopTrace atomic.Pointer[func(Flit)]
	// snoopFault, when set, may corrupt, delay or drop a back-invalidate
	// flit in flight (fault injection on the snoop channel, the BI-path
	// twin of RootPort.SetFault). A mangled flit fails decode and Snoop
	// returns the error to the directory, which owns the recovery policy.
	snoopFault atomic.Pointer[func(Flit) Flit]
}

// NewSwitch builds an empty switch.
func NewSwitch(name string) *Switch {
	sw := &Switch{
		name:       name,
		downstream: make(map[string]Endpoint),
		bindings:   make(map[string]string),
		shared:     make(map[string]bool),
	}
	sw.publish()
	return sw
}

// Name returns the switch name.
func (sw *Switch) Name() string { return sw.name }

// publish rebuilds the lock-free routing snapshot; callers hold sw.mu.
func (sw *Switch) publish() {
	v := make(map[string]Endpoint, len(sw.bindings))
	for vppb, port := range sw.bindings {
		if ep, ok := sw.downstream[port]; ok {
			v[vppb] = ep
		}
	}
	sw.view.Store(&v)
}

// AddDownstream attaches an endpoint to a named downstream port.
func (sw *Switch) AddDownstream(port string, ep Endpoint) error {
	if ep == nil {
		return fmt.Errorf("cxl: switch %s: nil endpoint", sw.name)
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if _, ok := sw.downstream[port]; ok {
		return fmt.Errorf("cxl: switch %s: downstream port %s already populated", sw.name, port)
	}
	sw.downstream[port] = ep
	return nil
}

// RemoveDownstream detaches a downstream port. The port must not be
// bound to any vPPB.
func (sw *Switch) RemoveDownstream(port string) error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if _, ok := sw.downstream[port]; !ok {
		return fmt.Errorf("cxl: switch %s: no downstream port %s", sw.name, port)
	}
	for v, d := range sw.bindings {
		if d == port {
			return fmt.Errorf("cxl: switch %s: downstream %s still bound to vPPB %s", sw.name, port, v)
		}
	}
	delete(sw.downstream, port)
	return nil
}

// bindLocked connects vppb to downstreamPort; callers hold sw.mu.
func (sw *Switch) bindLocked(vppb, downstreamPort string) error {
	if _, ok := sw.downstream[downstreamPort]; !ok {
		return fmt.Errorf("cxl: switch %s: no downstream port %s", sw.name, downstreamPort)
	}
	if existing, ok := sw.bindings[vppb]; ok {
		return fmt.Errorf("cxl: switch %s: vPPB %s already bound to %s", sw.name, vppb, existing)
	}
	if sw.shared[downstreamPort] {
		return fmt.Errorf("cxl: switch %s: downstream %s is shared; use BindShared", sw.name, downstreamPort)
	}
	for v, d := range sw.bindings {
		if d == downstreamPort {
			return fmt.Errorf("cxl: switch %s: downstream %s already bound to vPPB %s", sw.name, downstreamPort, v)
		}
	}
	sw.bindings[vppb] = downstreamPort
	return nil
}

// BindShared connects a host-facing vPPB to a downstream port that many
// vPPBs may reach at once — the CXL 3.0 shared-FAM binding a
// coherent shared-HDM segment needs (every host's root port resolves to
// the SAME Type-3 device; the device's directory arbitrates line
// ownership via the back-invalidate channel). The first BindShared
// marks the downstream shared; an exclusively bound downstream cannot
// be re-bound shared without unbinding it first.
func (sw *Switch) BindShared(vppb, downstreamPort string) error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if _, ok := sw.downstream[downstreamPort]; !ok {
		return fmt.Errorf("cxl: switch %s: no downstream port %s", sw.name, downstreamPort)
	}
	if existing, ok := sw.bindings[vppb]; ok {
		return fmt.Errorf("cxl: switch %s: vPPB %s already bound to %s", sw.name, vppb, existing)
	}
	if !sw.shared[downstreamPort] {
		for v, d := range sw.bindings {
			if d == downstreamPort {
				return fmt.Errorf("cxl: switch %s: downstream %s exclusively bound to vPPB %s", sw.name, downstreamPort, v)
			}
		}
	}
	sw.shared[downstreamPort] = true
	sw.bindings[vppb] = downstreamPort
	sw.publish()
	return nil
}

// Bind connects a host-facing vPPB to a downstream port. A downstream
// device may be bound to at most one vPPB at a time (single-logical-
// device semantics; hosts share an MLD through per-host endpoints the
// fabric manager builds over its extents).
func (sw *Switch) Bind(vppb, downstreamPort string) error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if err := sw.bindLocked(vppb, downstreamPort); err != nil {
		return err
	}
	sw.publish()
	return nil
}

// Unbind releases a vPPB, returning its device to the pool. The last
// unbind from a shared downstream clears its shared mark, so it can be
// bound exclusively again. Any snooper registered on the vPPB is
// deregistered with it.
func (sw *Switch) Unbind(vppb string) error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	port, ok := sw.bindings[vppb]
	if !ok {
		return fmt.Errorf("cxl: switch %s: vPPB %s not bound", sw.name, vppb)
	}
	delete(sw.bindings, vppb)
	if sw.shared[port] {
		still := false
		for _, d := range sw.bindings {
			if d == port {
				still = true
				break
			}
		}
		if !still {
			delete(sw.shared, port)
		}
	}
	if cur := sw.snoopers.Load(); cur != nil {
		if _, ok := (*cur)[vppb]; ok {
			next := make(map[string]Snooper, len(*cur))
			for k, v := range *cur {
				if k != vppb {
					next[k] = v
				}
			}
			sw.snoopers.Store(&next)
		}
	}
	sw.publish()
	return nil
}

// Rebind atomically moves a vPPB to a different downstream port: other
// vPPBs never observe an intermediate state, and lookups through this
// one see either the old endpoint or the new, never nothing. The vPPB
// must currently be bound; the target port must exist and be free.
// Transactions already in flight complete against the endpoint they
// resolved at issue time, exactly as with Unbind.
func (sw *Switch) Rebind(vppb, downstreamPort string) error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	old, ok := sw.bindings[vppb]
	if !ok {
		return fmt.Errorf("cxl: switch %s: vPPB %s not bound", sw.name, vppb)
	}
	if old == downstreamPort {
		return nil
	}
	delete(sw.bindings, vppb)
	if err := sw.bindLocked(vppb, downstreamPort); err != nil {
		sw.bindings[vppb] = old // roll back; snapshot never saw the gap
		return err
	}
	sw.publish()
	return nil
}

// EndpointFor resolves the endpoint visible through a vPPB. It reads
// the published routing snapshot without taking the switch lock — the
// data-plane path stays wait-free while the control plane rebinds.
func (sw *Switch) EndpointFor(vppb string) (Endpoint, bool) {
	v := sw.view.Load()
	if v == nil {
		return nil, false
	}
	ep, ok := (*v)[vppb]
	return ep, ok
}

// Snooper is a host-side handler for the CXL 3.0 back-invalidate
// channel: the coherent cache behind one vPPB. HandleBISnp must write
// any dirty copy of the snooped line back through the host's own
// CXL.mem path before returning (the response carries state, not data).
type Snooper interface {
	HandleBISnp(BISnp) BIRsp
}

// RegisterSnooper attaches a back-invalidate handler to a bound vPPB.
// The device-side directory reaches the host through Snoop; hosts that
// never register simply cannot cache shared lines coherently.
func (sw *Switch) RegisterSnooper(vppb string, s Snooper) error {
	if s == nil {
		return fmt.Errorf("cxl: switch %s: nil snooper", sw.name)
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if _, ok := sw.bindings[vppb]; !ok {
		return fmt.Errorf("cxl: switch %s: vPPB %s not bound", sw.name, vppb)
	}
	next := make(map[string]Snooper)
	if cur := sw.snoopers.Load(); cur != nil {
		for k, v := range *cur {
			next[k] = v
		}
	}
	next[vppb] = s
	sw.snoopers.Store(&next)
	return nil
}

// SetSnoopTrace installs (or, with nil, removes) a hook observing every
// back-invalidate flit the switch routes. Safe to swap while snoops are
// in flight — each snoop sees the hook it loaded at entry.
func (sw *Switch) SetSnoopTrace(f func(Flit)) {
	if f == nil {
		sw.snoopTrace.Store(nil)
		return
	}
	sw.snoopTrace.Store(&f)
}

// SetSnoopFault installs (or, with nil, removes) the hook that may
// mangle a back-invalidate flit in flight. Applied to both directions
// of every snoop, before the trace hook, like the port's fault slot.
func (sw *Switch) SetSnoopFault(f func(Flit) Flit) {
	if f == nil {
		sw.snoopFault.Store(nil)
		return
	}
	sw.snoopFault.Store(&f)
}

// Snoop routes one back-invalidate snoop upstream through a vPPB and
// returns the host's response. Both messages genuinely round-trip the
// flit codec — encode, wire, CRC check, decode — so the snoop channel
// is as observable (and as corruptible in fault tests) as the CXL.mem
// data path. The registry is read from a published snapshot, keeping
// the snoop path lock-free against concurrent control-plane changes.
func (sw *Switch) Snoop(vppb string, req BISnp) (BIRsp, error) {
	m := sw.snoopers.Load()
	if m == nil {
		return BIRsp{}, fmt.Errorf("cxl: switch %s: no snooper on vPPB %s", sw.name, vppb)
	}
	s, ok := (*m)[vppb]
	if !ok {
		return BIRsp{}, fmt.Errorf("cxl: switch %s: no snooper on vPPB %s", sw.name, vppb)
	}
	tr := sw.snoopTrace.Load()
	ft := sw.snoopFault.Load()
	var f Flit
	EncodeBISnpInto(&f, &req)
	if ft != nil {
		f = (*ft)(f)
	}
	if tr != nil {
		(*tr)(f)
	}
	var decoded BISnp
	if err := DecodeBISnpInto(&decoded, &f); err != nil {
		return BIRsp{}, fmt.Errorf("cxl: switch %s: snoop to %s: %w", sw.name, vppb, err)
	}
	resp := s.HandleBISnp(decoded)
	resp.Tag = decoded.Tag
	EncodeBIRspInto(&f, &resp)
	if ft != nil {
		f = (*ft)(f)
	}
	if tr != nil {
		(*tr)(f)
	}
	var out BIRsp
	if err := DecodeBIRspInto(&out, &f); err != nil {
		return BIRsp{}, fmt.Errorf("cxl: switch %s: snoop response from %s: %w", sw.name, vppb, err)
	}
	if out.Tag != req.Tag {
		return BIRsp{}, fmt.Errorf("cxl: switch %s: snoop response tag %d, want %d", sw.name, out.Tag, req.Tag)
	}
	return out, nil
}

// Bindings returns a copy of the current vPPB map.
func (sw *Switch) Bindings() map[string]string {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	out := make(map[string]string, len(sw.bindings))
	for k, v := range sw.bindings {
		out[k] = v
	}
	return out
}

// MLD is a Multi-Logical Device: the media of one physical Type-3
// device, its capacity shared among hosts as raw extents (first-fit
// with coalescing on release). It carries no endpoint of its own; the
// fabric manager maps its extents into per-host dynamic-capacity
// endpoints.
type MLD struct {
	name  string
	media memdev.Device

	mu    sync.Mutex
	alloc *ExtentAllocator
}

// NewMLD wraps media as a poolable multi-logical device.
func NewMLD(name string, media memdev.Device) (*MLD, error) {
	if media == nil {
		return nil, fmt.Errorf("cxl: mld %s: nil media", name)
	}
	alloc, err := NewExtentAllocator(media.Capacity())
	if err != nil {
		return nil, fmt.Errorf("cxl: mld %s: %w", name, err)
	}
	return &MLD{name: name, media: media, alloc: alloc}, nil
}

// Name returns the MLD name.
func (m *MLD) Name() string { return m.name }

// Media exposes the backing device. The fabric manager maps tenant
// extents directly onto it; data-plane isolation comes from the extent
// tables, not from hiding the media.
func (m *MLD) Media() memdev.Device { return m.media }

// Remaining reports unreserved capacity: what no allocated extent
// currently holds.
func (m *MLD) Remaining() units.Size {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.alloc.Remaining()
}

// AllocExtent reserves a contiguous raw extent of exactly size bytes
// (first-fit). Raw extents carry no endpoint; the fabric manager maps
// them into tenant devices.
func (m *MLD) AllocExtent(size units.Size) (Extent, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ext, err := m.alloc.Alloc(size)
	if err != nil {
		return Extent{}, fmt.Errorf("cxl: mld %s: %w", m.name, err)
	}
	return ext, nil
}

// AllocExtentAny reserves the lowest free extent, clipped to max bytes
// — the fragmented-pool path (see ExtentAllocator.AllocAny).
func (m *MLD) AllocExtentAny(max units.Size) (Extent, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.alloc.AllocAny(max)
}

// ReleaseExtent returns a raw extent to the pool, coalescing free
// neighbours. Double releases are refused.
func (m *MLD) ReleaseExtent(ext Extent) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.alloc.Free(ext); err != nil {
		return fmt.Errorf("cxl: mld %s: %w", m.name, err)
	}
	return nil
}
