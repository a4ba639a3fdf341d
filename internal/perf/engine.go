// Package perf is the analytic bandwidth engine that stands in for the
// paper's wall-clock measurements. Given a set of threads (cores), a
// target NUMA node and a traffic mix, it predicts the STREAM-reported
// bandwidth from first principles:
//
//  1. Per-thread demand by Little's law: a core sustaining MLP
//     outstanding 64-byte lines against an access latency L streams at
//     MLP·64B/L. Latency is media idle latency plus fabric latency, so
//     remote-socket and CXL threads individually demand less — the root
//     cause of the paper's distance-ordered curves.
//  2. Shared-resource contention: every fabric link and the target
//     device cap throughput. Allocation under contention is
//     proportional to demand (memory controllers serve in proportion to
//     arriving request streams), applied iteratively until all
//     constraints hold.
//  3. STREAM semantics: with static work partitioning the reported rate
//     is totalBytes / slowestThreadTime = N × min_i(alloc_i). This is
//     what produces the §4 Class 1.c effect — "adding remote accesses
//     of compute cores to the workload negatively impacts the
//     bandwidth, whereas adding local accesses contributes positively"
//     — and the convergence of close and spread at full core count.
//  4. App-Direct runs pay the PMDK overhead factor (§4 Class 2.a: "PMDK
//     overheads over CC-NUMA are 10%-15%").
package perf

import (
	"fmt"
	"math"

	"cxlpmem/internal/interconnect"
	"cxlpmem/internal/topology"
	"cxlpmem/internal/units"
)

// PMDKFactor is the App-Direct bandwidth multiplier: libpmemobj's
// allocation metadata, object translation and flush bookkeeping cost
// 10-15% over raw CC-NUMA access (§4 Class 2.a); we sit at 12%.
const PMDKFactor = 0.88

// Mix describes a traffic mixture.
type Mix struct {
	// ReadFrac is the fraction of traffic that is reads, in [0,1].
	// STREAM Copy/Scale move one read and one write per element
	// (0.5); Add/Triad move two reads and one write (2/3).
	ReadFrac float64
	// Factor is a kernel-specific derate/boost applied to the final
	// rate (read-modify-write avoidance, FMA pipelining). 0 means 1.0.
	Factor float64
}

func (m Mix) factor() float64 {
	if m.Factor == 0 {
		return 1.0
	}
	return m.Factor
}

// AccessMode selects the paper's two PMem operating modes.
type AccessMode int

const (
	// MemoryMode is plain cache-coherent NUMA access (Class 2).
	MemoryMode AccessMode = iota
	// AppDirect is PMDK-mediated persistent access (Class 1).
	AppDirect
)

func (m AccessMode) String() string {
	if m == AppDirect {
		return "app-direct"
	}
	return "memory-mode"
}

// Engine computes bandwidth predictions over one machine.
type Engine struct {
	M *topology.Machine
}

// New builds an engine.
func New(m *topology.Machine) *Engine { return &Engine{M: m} }

// threadDemand is the unloaded per-thread streaming bandwidth of core c
// against node id (Little's law).
func (e *Engine) threadDemand(c topology.Core, id topology.NodeID) (units.Bandwidth, error) {
	lat, err := e.M.AccessLatency(c, id)
	if err != nil {
		return 0, err
	}
	s, err := e.M.Socket(c.Socket)
	if err != nil {
		return 0, err
	}
	if lat <= 0 {
		return 0, fmt.Errorf("perf: non-positive latency for core %d -> node %d", c.ID, id)
	}
	bytesPerSec := float64(s.Model.MLP) * float64(units.CacheLine) / (lat.Duration().Seconds())
	return units.Bandwidth(bytesPerSec), nil
}

// Flow is one thread's traffic.
type Flow struct {
	Core   topology.Core
	Demand units.Bandwidth
	Alloc  units.Bandwidth
	Path   interconnect.Path
}

// Result is a bandwidth prediction.
type Result struct {
	// Flows carry per-thread demands and allocations.
	Flows []Flow
	// Total is the STREAM-reported rate: threads × slowest allocation,
	// after mode and kernel factors.
	Total units.Bandwidth
	// DeviceCap is the device-side bound used.
	DeviceCap units.Bandwidth
	// Bottleneck names the binding constraint ("device", a link name,
	// or "demand" when nothing saturates).
	Bottleneck string
}

// solver iteration count: constraint scaling is monotone decreasing;
// three passes settle every topology we build (validated by tests).
const solveIterations = 8

// StreamBandwidth predicts the rate T threads on the given cores achieve
// streaming against node id with the given mix and mode.
func (e *Engine) StreamBandwidth(cores []topology.Core, id topology.NodeID, mix Mix, mode AccessMode) (Result, error) {
	if len(cores) == 0 {
		return Result{}, fmt.Errorf("perf: no cores")
	}
	node, err := e.M.Node(id)
	if err != nil {
		return Result{}, err
	}
	flows := make([]Flow, len(cores))
	for i, c := range cores {
		d, err := e.threadDemand(c, id)
		if err != nil {
			return Result{}, err
		}
		p, err := e.M.Path(c, id)
		if err != nil {
			return Result{}, err
		}
		flows[i] = Flow{Core: c, Demand: d, Alloc: d, Path: p}
	}

	deviceCap := node.EffectiveCap(mix.ReadFrac)
	// Gather distinct links.
	var links []*interconnect.Link
	seen := map[*interconnect.Link]bool{}
	for _, f := range flows {
		for _, l := range f.Path.Links {
			if !seen[l] {
				seen[l] = true
				links = append(links, l)
			}
		}
	}

	bottleneck := "demand"
	for iter := 0; iter < solveIterations; iter++ {
		// Device constraint over all flows.
		if scaleConstraint(flows, func(Flow) bool { return true }, deviceCap) {
			bottleneck = "device"
		}
		// Each link constrains the flows crossing it.
		for _, l := range links {
			cap := l.EffectiveCap()
			if cap <= 0 {
				continue
			}
			link := l
			if scaleConstraint(flows, func(f Flow) bool { return f.Path.Contains(link) }, cap) {
				bottleneck = link.Name
			}
		}
	}

	minAlloc := math.Inf(1)
	for _, f := range flows {
		if v := float64(f.Alloc); v < minAlloc {
			minAlloc = v
		}
	}
	total := minAlloc * float64(len(flows))
	// The straggler total can never exceed the device's ability to
	// serve; if faster threads' early finish left headroom the device
	// still bounds the aggregate.
	if total > float64(deviceCap) {
		total = float64(deviceCap)
		bottleneck = "device"
	}
	total *= mix.factor()
	if mode == AppDirect {
		total *= PMDKFactor
	}
	return Result{
		Flows:      flows,
		Total:      units.Bandwidth(total),
		DeviceCap:  deviceCap,
		Bottleneck: bottleneck,
	}, nil
}

// scaleConstraint scales member allocations proportionally when their
// sum exceeds cap; returns whether the constraint was binding.
func scaleConstraint(flows []Flow, member func(Flow) bool, cap units.Bandwidth) bool {
	var sum float64
	for _, f := range flows {
		if member(f) {
			sum += float64(f.Alloc)
		}
	}
	if sum <= float64(cap) || sum == 0 {
		return false
	}
	scale := float64(cap) / sum
	for i := range flows {
		if member(flows[i]) {
			flows[i].Alloc = units.Bandwidth(float64(flows[i].Alloc) * scale)
		}
	}
	return true
}

// ThreadSweep runs StreamBandwidth for 1..len(cores) threads taken in
// order, returning one Total per count — exactly one curve of the
// paper's figures.
func (e *Engine) ThreadSweep(cores []topology.Core, id topology.NodeID, mix Mix, mode AccessMode) ([]units.Bandwidth, error) {
	out := make([]units.Bandwidth, 0, len(cores))
	for n := 1; n <= len(cores); n++ {
		r, err := e.StreamBandwidth(cores[:n], id, mix, mode)
		if err != nil {
			return nil, err
		}
		out = append(out, r.Total)
	}
	return out, nil
}
