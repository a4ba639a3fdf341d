// Package numa provides the placement machinery the paper's methodology
// uses: numactl-style memory binding (`numactl --membind=N`, Figures 2
// and 9) and OpenMP-style thread affinity. Class 1.c of the evaluation
// compares two affinity methods: "The close method populates an entire
// socket first and then adds cores from the second socket. The spread
// method, on the opposite, adds cores alternately from both sockets."
package numa

import (
	"fmt"

	"cxlpmem/internal/topology"
)

// Affinity selects a thread-placement strategy.
type Affinity int

const (
	// Close fills socket 0 completely before using socket 1.
	Close Affinity = iota
	// Spread alternates cores between the sockets.
	Spread
)

func (a Affinity) String() string {
	switch a {
	case Close:
		return "close"
	case Spread:
		return "spread"
	default:
		return fmt.Sprintf("Affinity(%d)", int(a))
	}
}

// PlaceThreads returns the cores the first n OpenMP threads land on
// under the given affinity across all sockets of m.
func PlaceThreads(m *topology.Machine, n int, a Affinity) ([]topology.Core, error) {
	total := len(m.Cores())
	if n <= 0 || n > total {
		return nil, fmt.Errorf("numa: thread count %d outside 1..%d", n, total)
	}
	switch a {
	case Close:
		return m.Cores()[:n], nil
	case Spread:
		var lists [][]topology.Core
		for _, s := range m.Sockets {
			lists = append(lists, s.Cores)
		}
		out := make([]topology.Core, 0, n)
		for i := 0; len(out) < n; i++ {
			for _, l := range lists {
				if i < len(l) {
					out = append(out, l[i])
					if len(out) == n {
						break
					}
				}
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("numa: unknown affinity %d", a)
	}
}

// PlaceOnSocket pins the first n threads to one socket, the single-
// socket configuration of test groups 1.a, 1.b and 2.a.
func PlaceOnSocket(m *topology.Machine, socket topology.SocketID, n int) ([]topology.Core, error) {
	cores := m.CoresOn(socket)
	if cores == nil {
		return nil, fmt.Errorf("numa: no socket %d", socket)
	}
	if n <= 0 || n > len(cores) {
		return nil, fmt.Errorf("numa: thread count %d outside 1..%d on socket %d", n, len(cores), socket)
	}
	return cores[:n], nil
}

// PolicyKind enumerates memory policies.
type PolicyKind int

const (
	// Membind restricts allocation to an explicit node set and fails
	// if they cannot satisfy it (numactl --membind).
	Membind PolicyKind = iota
	// Interleave round-robins pages across a node set
	// (numactl --interleave).
	Interleave
	// Preferred tries one node first and falls back to any other
	// (numactl --preferred).
	Preferred
)

func (k PolicyKind) String() string {
	switch k {
	case Membind:
		return "membind"
	case Interleave:
		return "interleave"
	case Preferred:
		return "preferred"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(k))
	}
}

// Policy is a memory placement policy over NUMA nodes.
type Policy struct {
	Kind  PolicyKind
	Nodes []topology.NodeID

	next int // interleave cursor
}

// NewMembind builds a --membind=nodes policy.
func NewMembind(nodes ...topology.NodeID) *Policy {
	return &Policy{Kind: Membind, Nodes: nodes}
}

// NewInterleave builds a --interleave=nodes policy.
func NewInterleave(nodes ...topology.NodeID) *Policy {
	return &Policy{Kind: Interleave, Nodes: nodes}
}

// NewPreferred builds a --preferred=node policy.
func NewPreferred(node topology.NodeID) *Policy {
	return &Policy{Kind: Preferred, Nodes: []topology.NodeID{node}}
}

// validate checks the policy against a machine.
func (p *Policy) validate(m *topology.Machine) error {
	if len(p.Nodes) == 0 {
		return fmt.Errorf("numa: %s policy with no nodes", p.Kind)
	}
	if p.Kind == Preferred && len(p.Nodes) != 1 {
		return fmt.Errorf("numa: preferred policy needs exactly one node, got %d", len(p.Nodes))
	}
	for _, id := range p.Nodes {
		if _, err := m.Node(id); err != nil {
			return err
		}
	}
	return nil
}

// Pick returns the node the next allocation should land on, advancing
// the interleave cursor. sizeAvailable reports whether a node can hold
// the allocation; Membind fails when none of its nodes can, Preferred
// falls back across the whole machine.
func (p *Policy) Pick(m *topology.Machine, sizeAvailable func(*topology.Node) bool) (*topology.Node, error) {
	if err := p.validate(m); err != nil {
		return nil, err
	}
	switch p.Kind {
	case Membind:
		for _, id := range p.Nodes {
			n, err := m.Node(id)
			if err != nil {
				return nil, err
			}
			if sizeAvailable == nil || sizeAvailable(n) {
				return n, nil
			}
		}
		return nil, fmt.Errorf("numa: membind=%v cannot satisfy allocation", p.Nodes)
	case Interleave:
		for range p.Nodes {
			id := p.Nodes[p.next%len(p.Nodes)]
			p.next++
			n, err := m.Node(id)
			if err != nil {
				return nil, err
			}
			if sizeAvailable == nil || sizeAvailable(n) {
				return n, nil
			}
		}
		return nil, fmt.Errorf("numa: interleave=%v cannot satisfy allocation", p.Nodes)
	case Preferred:
		n, err := m.Node(p.Nodes[0])
		if err != nil {
			return nil, err
		}
		if sizeAvailable == nil || sizeAvailable(n) {
			return n, nil
		}
		for _, cand := range m.Nodes {
			if sizeAvailable(cand) {
				return cand, nil
			}
		}
		return nil, fmt.Errorf("numa: preferred=%d cannot satisfy allocation anywhere", p.Nodes[0])
	default:
		return nil, fmt.Errorf("numa: unknown policy kind %d", p.Kind)
	}
}

func (p *Policy) String() string {
	return fmt.Sprintf("--%s=%v", p.Kind, p.Nodes)
}
