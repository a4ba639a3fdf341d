// Package topology describes the machines the paper experiments on:
// sockets, cores, NUMA memory nodes, and the fabrics joining them. Two
// builders reproduce the paper's setups (§2.1): Setup #1 is the dual
// Sapphire Rapids node with one DDR5-4800 DIMM per socket and the CXL
// FPGA prototype; Setup #2 is the dual Xeon Gold 5215 reference node
// with six DDR4-2666 channels per socket. A third builder provides the
// Optane DCPMM reference platform the paper compares against.
package topology

import (
	"fmt"

	"cxlpmem/internal/cxl"
	"cxlpmem/internal/interconnect"
	"cxlpmem/internal/memdev"
	"cxlpmem/internal/units"
)

// CoreID identifies a core machine-wide (0..n-1, socket-major, matching
// the paper's "cores 0-9" / "cores 10-19" numbering).
type CoreID int

// SocketID identifies a CPU socket.
type SocketID int

// NodeID identifies a NUMA memory node. The paper's annotations map
// directly: 0 = socket0 memory, 1 = socket1 memory, 2 = CXL memory.
type NodeID int

// CPUModel carries the microarchitectural parameters the performance
// model needs.
type CPUModel struct {
	// Name of the processor.
	Name string
	// BaseGHz is the base clock.
	BaseGHz float64
	// CoresPerSocket is the enabled core count (the paper's BIOS
	// limits the SPR sockets to 10 cores each).
	CoresPerSocket int
	// HyperThreading reports SMT availability (both setups have it;
	// STREAM runs one thread per physical core).
	HyperThreading bool
	// MLP is the per-core memory-level parallelism: sustained
	// outstanding 64-byte misses. Together with access latency it sets
	// per-thread bandwidth via Little's law. Sapphire Rapids' larger
	// caches and deeper queues give it a higher MLP than Xeon Gold,
	// which is exactly the §4 Class 2.a observation ("larger caches in
	// Setup #1 ... as opposed to Setup #2").
	MLP int
	// LLCMiB is the last-level cache per socket.
	LLCMiB int
}

// Core is one physical core.
type Core struct {
	ID     CoreID
	Socket SocketID
}

// Socket is one CPU package.
type Socket struct {
	ID    SocketID
	Model CPUModel
	Cores []Core
}

// NodeKind classifies NUMA nodes.
type NodeKind int

const (
	// NodeDRAM is socket-attached conventional memory.
	NodeDRAM NodeKind = iota
	// NodeCXL is memory behind a CXL endpoint.
	NodeCXL
	// NodePMem is DIMM-attached persistent memory (DCPMM reference).
	NodePMem
)

func (k NodeKind) String() string {
	switch k {
	case NodeDRAM:
		return "dram"
	case NodeCXL:
		return "cxl"
	case NodePMem:
		return "pmem"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is one NUMA memory node.
type Node struct {
	ID   NodeID
	Kind NodeKind
	// Device is the backing media.
	Device memdev.Device
	// HomeSocket is the socket the node hangs off (-1 for a CXL node
	// reachable through the root complex; we attach the slot to
	// AttachSocket).
	HomeSocket SocketID
	// IPCap, when non-zero, is an additional device-side throughput
	// bound below the media peak — the prototype's CXL IP slice
	// throughput (§2.2: "scaling the resources allocated to the CXL IP
	// by increasing the number of slices is a viable strategy").
	IPCap units.Bandwidth
	// AttachSocket is the socket whose root complex owns the CXL slot
	// (CXL nodes only).
	AttachSocket SocketID
	// Port and Window are the enumerated CXL plumbing (CXL nodes only).
	Port   *cxl.RootPort
	Window cxl.MemWindow
	// InterleaveWays, when > 1, marks a striped CXL node: the window is
	// interleaved across this many identical device+port legs. Device
	// and IPCap then describe ONE leg; EffectiveCap scales them by the
	// way count, exactly as the striped data path multiplies measured
	// bandwidth.
	InterleaveWays int
	// Stripe is the striped data path of an interleaved node (the
	// real-transfer counterpart of the modelled scaling).
	Stripe *cxl.InterleaveSet
	// Ports lists every leg's root port for interleaved nodes
	// (Port == Ports[0]).
	Ports []*cxl.RootPort
	// Fabric, when set, replaces Port.Link() in paths: the aggregate
	// striped link of an interleaved node (interconnect.NewStriped).
	Fabric *interconnect.Link
}

// EffectiveCap is the device-side throughput bound for a traffic mix
// with the given read fraction: one leg's media rate clamped by its CXL
// IP cap, multiplied by the interleave width — N devices serve an
// N-way-striped window in parallel. Fabric caps are applied separately
// per path by the performance engine.
func (n *Node) EffectiveCap(readFrac float64) units.Bandwidth {
	cap := n.Device.Profile().StreamPeak(readFrac)
	if n.IPCap > 0 && n.IPCap < cap {
		cap = n.IPCap
	}
	if n.InterleaveWays > 1 {
		cap = units.Bandwidth(float64(cap) * float64(n.InterleaveWays))
	}
	return cap
}

// DataPath returns the node's memory data path as a cxl.MemIO in
// node-relative address space (offset 0 is the node's first byte): the
// striped interleave set for a multi-leg CXL node, the window-translated
// root port for a single-leg one, and a direct device adapter for
// DRAM/PMem nodes (no link traversal). Consumers
// program against the interface, never against the concrete plumbing.
func (n *Node) DataPath() cxl.MemIO {
	switch {
	case n.Stripe != nil:
		return cxl.NewWindowIO(n.Stripe, n.Window.Base)
	case n.Port != nil:
		return cxl.NewWindowIO(n.Port, n.Window.Base)
	default:
		return cxl.NewDeviceIO(n.Device)
	}
}

// Persistent reports whether the node's media survives power cycles.
func (n *Node) Persistent() bool { return n.Device.Persistent() }

func (n *Node) String() string {
	return fmt.Sprintf("node%d(%s, %s, %s)", n.ID, n.Kind, n.Device.Name(), n.Device.Capacity())
}

// Machine is a complete host.
type Machine struct {
	Name    string
	Sockets []*Socket
	Nodes   []*Node
	// UPI is the inter-socket link (nil for single-socket machines).
	UPI *interconnect.Link
}

// Core resolves a core by ID.
func (m *Machine) Core(id CoreID) (Core, error) {
	for _, s := range m.Sockets {
		for _, c := range s.Cores {
			if c.ID == id {
				return c, nil
			}
		}
	}
	return Core{}, fmt.Errorf("topology: %s: no core %d", m.Name, id)
}

// Cores lists every core, socket-major.
func (m *Machine) Cores() []Core {
	var out []Core
	for _, s := range m.Sockets {
		out = append(out, s.Cores...)
	}
	return out
}

// CoresOn lists the cores of one socket.
func (m *Machine) CoresOn(id SocketID) []Core {
	for _, s := range m.Sockets {
		if s.ID == id {
			out := make([]Core, len(s.Cores))
			copy(out, s.Cores)
			return out
		}
	}
	return nil
}

// Socket resolves a socket by ID.
func (m *Machine) Socket(id SocketID) (*Socket, error) {
	for _, s := range m.Sockets {
		if s.ID == id {
			return s, nil
		}
	}
	return nil, fmt.Errorf("topology: %s: no socket %d", m.Name, id)
}

// Node resolves a NUMA node by ID.
func (m *Machine) Node(id NodeID) (*Node, error) {
	for _, n := range m.Nodes {
		if n.ID == id {
			return n, nil
		}
	}
	return nil, fmt.Errorf("topology: %s: no node %d", m.Name, id)
}

// Path returns the fabric traversal from a core to a node: empty for
// socket-local DRAM/PMem, UPI for the alternate socket, the CXL link
// (plus UPI when the core sits on the other socket) for CXL nodes.
func (m *Machine) Path(c Core, id NodeID) (interconnect.Path, error) {
	n, err := m.Node(id)
	if err != nil {
		return interconnect.Path{}, err
	}
	switch n.Kind {
	case NodeDRAM, NodePMem:
		if n.HomeSocket == c.Socket {
			return interconnect.Path{}, nil
		}
		if m.UPI == nil {
			return interconnect.Path{}, fmt.Errorf("topology: %s: core %d cannot reach node %d without UPI", m.Name, c.ID, id)
		}
		return interconnect.Path{Links: []*interconnect.Link{m.UPI}}, nil
	case NodeCXL:
		if n.Port == nil {
			return interconnect.Path{}, fmt.Errorf("topology: %s: CXL node %d has no port", m.Name, id)
		}
		link := n.Port.Link()
		if n.Fabric != nil {
			link = n.Fabric // striped node: legs traverse in parallel
		}
		if c.Socket == n.AttachSocket {
			return interconnect.Path{Links: []*interconnect.Link{link}}, nil
		}
		if m.UPI == nil {
			return interconnect.Path{}, fmt.Errorf("topology: %s: core %d cannot reach CXL node %d without UPI", m.Name, c.ID, id)
		}
		return interconnect.Path{Links: []*interconnect.Link{m.UPI, link}}, nil
	default:
		return interconnect.Path{}, fmt.Errorf("topology: %s: node %d has unknown kind", m.Name, id)
	}
}

// AccessLatency is the unloaded latency from a core to a node: media
// idle latency plus the path's fabric latency.
func (m *Machine) AccessLatency(c Core, id NodeID) (units.Latency, error) {
	n, err := m.Node(id)
	if err != nil {
		return 0, err
	}
	p, err := m.Path(c, id)
	if err != nil {
		return 0, err
	}
	return n.Device.Profile().IdleLatency + p.Latency(), nil
}

// Validate checks structural invariants: contiguous socket-major core
// IDs, unique node IDs, devices present, reachable nodes.
func (m *Machine) Validate() error {
	next := CoreID(0)
	for _, s := range m.Sockets {
		if len(s.Cores) == 0 {
			return fmt.Errorf("topology: %s: socket %d has no cores", m.Name, s.ID)
		}
		for _, c := range s.Cores {
			if c.ID != next {
				return fmt.Errorf("topology: %s: core IDs not socket-major contiguous at %d", m.Name, c.ID)
			}
			if c.Socket != s.ID {
				return fmt.Errorf("topology: %s: core %d claims socket %d inside socket %d", m.Name, c.ID, c.Socket, s.ID)
			}
			next++
		}
	}
	seen := map[NodeID]bool{}
	for _, n := range m.Nodes {
		if seen[n.ID] {
			return fmt.Errorf("topology: %s: duplicate node %d", m.Name, n.ID)
		}
		seen[n.ID] = true
		if n.Device == nil {
			return fmt.Errorf("topology: %s: node %d has no device", m.Name, n.ID)
		}
		for _, c := range m.Cores() {
			if _, err := m.Path(c, n.ID); err != nil {
				return err
			}
		}
	}
	return nil
}

// Describe renders the machine in the style of the paper's Figures 2/3.
func (m *Machine) Describe() string {
	s := m.Name + "\n"
	for _, sk := range m.Sockets {
		first := sk.Cores[0].ID
		last := sk.Cores[len(sk.Cores)-1].ID
		s += fmt.Sprintf("  socket%d: %s, cores %d-%d\n", sk.ID, sk.Model.Name, first, last)
	}
	for _, n := range m.Nodes {
		s += "  " + n.String()
		if n.Kind == NodeCXL && n.Port != nil {
			s += fmt.Sprintf(" via %s", n.Port.Link().Name)
		}
		s += "\n"
	}
	if m.UPI != nil {
		s += fmt.Sprintf("  upi: %s\n", m.UPI)
	}
	return s
}

func newSocket(id SocketID, model CPUModel, firstCore CoreID) *Socket {
	s := &Socket{ID: id, Model: model}
	for i := 0; i < model.CoresPerSocket; i++ {
		s.Cores = append(s.Cores, Core{ID: firstCore + CoreID(i), Socket: id})
	}
	return s
}
