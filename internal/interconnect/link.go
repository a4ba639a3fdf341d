// Package interconnect models the fabrics between cores and memory in the
// paper's two setups: the UPI link joining the two CPU sockets and the
// PCIe Gen5 x16 connection carrying CXL.mem traffic to the FPGA prototype
// (§2.2: "the R-Tile interfaces with a CPU host via a PCIe Gen5x16
// connection, delivering a theoretical bandwidth of up to 64GB/s").
//
// A Link carries a latency and a per-direction bandwidth cap; a Path is an
// ordered traversal of links whose latencies accumulate and whose
// narrowest cap bounds throughput. The analytic engine in internal/perf
// resolves contention when several flows share a link.
package interconnect

import (
	"fmt"

	"cxlpmem/internal/units"
)

// Kind classifies a link technology.
type Kind int

const (
	// KindUPI is Intel Ultra Path Interconnect between sockets.
	KindUPI Kind = iota
	// KindPCIe5 is PCIe Gen5 (32 GT/s per lane), the carrier of
	// CXL 1.1/2.0 (paper §1.3).
	KindPCIe5
	// KindPCIe6 is PCIe Gen6 (64 GT/s per lane), the carrier of
	// CXL 3.0 (paper §1.3) — used by the link-generation ablation.
	KindPCIe6
	// KindPCIe4 is PCIe Gen4 (16 GT/s per lane), the NVMe-SSD era
	// fabric of the paper's "Today" diagram (Figure 1).
	KindPCIe4
	// KindOnDie is the zero-cost path from a core to its own socket's
	// memory controller.
	KindOnDie
)

func (k Kind) String() string {
	switch k {
	case KindUPI:
		return "UPI"
	case KindPCIe5:
		return "PCIe5"
	case KindPCIe6:
		return "PCIe6"
	case KindPCIe4:
		return "PCIe4"
	case KindOnDie:
		return "on-die"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// gtPerLane returns the per-lane signalling rate in GT/s for a kind, or 0
// for kinds without a lane structure.
func (k Kind) gtPerLane() float64 {
	switch k {
	case KindPCIe4:
		return 16
	case KindPCIe5:
		return 32
	case KindPCIe6:
		return 64
	default:
		return 0
	}
}

// Link is a point-to-point fabric segment.
type Link struct {
	// Name identifies the link (e.g. "upi0", "pcie5x16-cxl").
	Name string
	// Kind of the link.
	Kind Kind
	// Lanes for PCIe kinds (16 for the paper's x16 slot).
	Lanes int
	// Latency added by one traversal of the link, one way.
	Latency units.Latency
	// Cap is the effective per-direction bandwidth available to
	// payload after encoding and protocol overhead. If zero it is
	// derived from Kind and Lanes via DefaultCap.
	Cap units.Bandwidth
	// Efficiency derates the raw lane bandwidth when Cap is derived
	// (protocol headers, flit framing). Zero means kind-specific
	// defaults.
	Efficiency float64
}

// Raw lane efficiency defaults. CXL.mem moves 64-byte lines inside 68-byte
// flits with slot headers; together with PCIe framing a sustained ~75% of
// raw is representative for streaming. UPI and on-die paths set Cap
// explicitly in the topology builders.
const (
	defaultPCIeEfficiency = 0.75
)

// EffectiveCap returns the per-direction payload bandwidth of the link.
func (l *Link) EffectiveCap() units.Bandwidth {
	if l.Cap > 0 {
		return l.Cap
	}
	gt := l.Kind.gtPerLane()
	if gt == 0 || l.Lanes <= 0 {
		return 0
	}
	eff := l.Efficiency
	if eff == 0 {
		eff = defaultPCIeEfficiency
	}
	// GT/s ~ Gb/s per lane for PCIe 5.0/6.0 (128b/130b and PAM4+FEC
	// encodings are close enough to 1b/1T for this model).
	raw := gt * float64(l.Lanes) / 8 // GB/s
	return units.GBps(raw * eff)
}

// RawPeak returns the theoretical per-direction bandwidth before protocol
// overhead (the "up to 64GB/s" figure the paper quotes for Gen5 x16).
func (l *Link) RawPeak() units.Bandwidth {
	gt := l.Kind.gtPerLane()
	if gt == 0 || l.Lanes <= 0 {
		return l.Cap
	}
	return units.GBps(gt * float64(l.Lanes) / 8)
}

func (l *Link) String() string {
	if l.Lanes > 0 {
		return fmt.Sprintf("%s(%s x%d, %s, cap %s)", l.Name, l.Kind, l.Lanes, l.Latency, l.EffectiveCap())
	}
	return fmt.Sprintf("%s(%s, %s, cap %s)", l.Name, l.Kind, l.Latency, l.EffectiveCap())
}

// Path is an ordered traversal of links from a core to a memory device.
// An empty path means socket-local access.
type Path struct {
	Links []*Link
}

// Latency returns the summed one-way latency of all links.
func (p Path) Latency() units.Latency {
	var total units.Latency
	for _, l := range p.Links {
		total += l.Latency
	}
	return total
}

// Contains reports whether the path traverses the given link.
func (p Path) Contains(l *Link) bool {
	for _, x := range p.Links {
		if x == l {
			return true
		}
	}
	return false
}

func (p Path) String() string {
	if len(p.Links) == 0 {
		return "local"
	}
	s := ""
	for i, l := range p.Links {
		if i > 0 {
			s += " -> "
		}
		s += l.Name
	}
	return s
}

// NewUPI builds a cross-socket UPI link. The effective cap and latency
// default to values representative of the paper's hosts; a remote-socket
// STREAM run on Sapphire Rapids loses ~30% against local access (§4
// Class 1.b), which the combination of +110 ns and a ~17.5 GB/s sustained
// remote cap reproduces.
func NewUPI(name string, cap units.Bandwidth, latency units.Latency) *Link {
	if cap == 0 {
		cap = units.GBps(17.5)
	}
	if latency == 0 {
		latency = units.Nanoseconds(110)
	}
	return &Link{Name: name, Kind: KindUPI, Latency: latency, Cap: cap}
}

// NewPCIe builds a PCIe link of the given generation kind and width.
func NewPCIe(name string, kind Kind, lanes int, latency units.Latency) (*Link, error) {
	if kind.gtPerLane() == 0 {
		return nil, fmt.Errorf("interconnect: %s: kind %v is not a PCIe generation", name, kind)
	}
	if lanes <= 0 || lanes > 16 {
		return nil, fmt.Errorf("interconnect: %s: invalid lane count %d", name, lanes)
	}
	if latency == 0 {
		latency = units.Nanoseconds(120)
	}
	return &Link{Name: name, Kind: kind, Lanes: lanes, Latency: latency}, nil
}

// NewStriped builds the aggregate fabric of an n-way interleave set:
// n identical member links the host stripes granules across. Legs
// traverse in parallel, so the aggregate keeps one member's latency
// while the payload cap sums — the analytic model's view of what
// cxl.InterleaveSet does on the simulated wire.
func NewStriped(name string, n int, member *Link) (*Link, error) {
	if n < 1 {
		return nil, fmt.Errorf("interconnect: %s: invalid stripe width %d", name, n)
	}
	if member == nil {
		return nil, fmt.Errorf("interconnect: %s: nil member link", name)
	}
	return &Link{
		Name:    name,
		Kind:    member.Kind,
		Lanes:   member.Lanes * n,
		Latency: member.Latency,
		Cap:     units.Bandwidth(float64(member.EffectiveCap()) * float64(n)),
	}, nil
}
