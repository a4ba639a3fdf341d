package numa

import (
	"testing"

	"cxlpmem/internal/topology"
)

func machine(t *testing.T) *topology.Machine {
	t.Helper()
	m, _, err := topology.Setup1(topology.Setup1Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func ids(cores []topology.Core) []int {
	out := make([]int, len(cores))
	for i, c := range cores {
		out[i] = int(c.ID)
	}
	return out
}

func TestPlaceThreadsClose(t *testing.T) {
	m := machine(t)
	cores, err := PlaceThreads(m, 12, Close)
	if err != nil {
		t.Fatal(err)
	}
	// Close: fill socket0 (0..9) then socket1 (10, 11).
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	got := ids(cores)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("close placement = %v, want %v", got, want)
		}
	}
	// All of socket0 first: thread 10 is the first remote one.
	if cores[9].Socket != 0 || cores[10].Socket != 1 {
		t.Error("close did not populate an entire socket first")
	}
}

func TestPlaceThreadsSpread(t *testing.T) {
	m := machine(t)
	cores, err := PlaceThreads(m, 6, Spread)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 10, 1, 11, 2, 12}
	got := ids(cores)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("spread placement = %v, want %v", got, want)
		}
	}
	// Alternating sockets.
	for i, c := range cores {
		if int(c.Socket) != i%2 {
			t.Errorf("thread %d on socket %d, want %d", i, c.Socket, i%2)
		}
	}
}

func TestPlaceThreadsFullMachineIdenticalSets(t *testing.T) {
	// At the full core count, close and spread use the same core set —
	// the §4 Class 1.c convergence precondition.
	m := machine(t)
	c, err := PlaceThreads(m, 20, Close)
	if err != nil {
		t.Fatal(err)
	}
	s, err := PlaceThreads(m, 20, Spread)
	if err != nil {
		t.Fatal(err)
	}
	inClose := map[topology.CoreID]bool{}
	for _, x := range c {
		inClose[x.ID] = true
	}
	for _, x := range s {
		if !inClose[x.ID] {
			t.Fatalf("spread uses core %d that close does not", x.ID)
		}
	}
}

func TestPlaceThreadsValidation(t *testing.T) {
	m := machine(t)
	if _, err := PlaceThreads(m, 0, Close); err == nil {
		t.Error("accepted 0 threads")
	}
	if _, err := PlaceThreads(m, 21, Close); err == nil {
		t.Error("accepted more threads than cores")
	}
	if _, err := PlaceThreads(m, 4, Affinity(9)); err == nil {
		t.Error("accepted unknown affinity")
	}
}

func TestPlaceOnSocket(t *testing.T) {
	m := machine(t)
	cores, err := PlaceOnSocket(m, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{10, 11, 12, 13}
	got := ids(cores)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("socket placement = %v, want %v", got, want)
		}
	}
	if _, err := PlaceOnSocket(m, 5, 1); err == nil {
		t.Error("accepted missing socket")
	}
	if _, err := PlaceOnSocket(m, 0, 11); err == nil {
		t.Error("accepted too many threads for one socket")
	}
	if _, err := PlaceOnSocket(m, 0, 0); err == nil {
		t.Error("accepted zero threads")
	}
}

func TestMembindPick(t *testing.T) {
	m := machine(t)
	p := NewMembind(2)
	n, err := p.Pick(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n.ID != 2 {
		t.Errorf("picked node %d, want 2", n.ID)
	}
	// Membind fails when the node cannot satisfy the request.
	_, err = p.Pick(m, func(*topology.Node) bool { return false })
	if err == nil {
		t.Error("membind fell back despite strict binding")
	}
}

func TestInterleaveRoundRobins(t *testing.T) {
	m := machine(t)
	p := NewInterleave(0, 1, 2)
	var got []topology.NodeID
	for i := 0; i < 6; i++ {
		n, err := p.Pick(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, n.ID)
	}
	want := []topology.NodeID{0, 1, 2, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interleave sequence = %v, want %v", got, want)
		}
	}
	// Skips full nodes.
	p2 := NewInterleave(0, 1)
	n, err := p2.Pick(m, func(n *topology.Node) bool { return n.ID != 0 })
	if err != nil || n.ID != 1 {
		t.Errorf("interleave skip = %v, %v", n, err)
	}
}

func TestPreferredFallsBack(t *testing.T) {
	m := machine(t)
	p := NewPreferred(2)
	n, err := p.Pick(m, nil)
	if err != nil || n.ID != 2 {
		t.Fatalf("preferred pick = %v, %v", n, err)
	}
	// Falls back anywhere when the preferred node is full.
	n, err = p.Pick(m, func(n *topology.Node) bool { return n.ID == 0 })
	if err != nil || n.ID != 0 {
		t.Errorf("preferred fallback = %v, %v", n, err)
	}
	// Fails when nothing fits.
	if _, err := p.Pick(m, func(*topology.Node) bool { return false }); err == nil {
		t.Error("preferred succeeded with no capacity anywhere")
	}
}

func TestPolicyValidation(t *testing.T) {
	m := machine(t)
	if err := (&Policy{Kind: Membind}).validate(m); err == nil {
		t.Error("empty node list accepted")
	}
	if err := NewMembind(7).validate(m); err == nil {
		t.Error("missing node accepted")
	}
	if err := (&Policy{Kind: Preferred, Nodes: []topology.NodeID{0, 1}}).validate(m); err == nil {
		t.Error("multi-node preferred accepted")
	}
	if _, err := (&Policy{Kind: PolicyKind(9), Nodes: []topology.NodeID{0}}).Pick(m, nil); err == nil {
		t.Error("unknown policy kind accepted")
	}
}

func TestStringers(t *testing.T) {
	if Close.String() != "close" || Spread.String() != "spread" {
		t.Error("affinity strings")
	}
	if Affinity(5).String() == "" {
		t.Error("unknown affinity string")
	}
	if Membind.String() != "membind" || Interleave.String() != "interleave" || Preferred.String() != "preferred" {
		t.Error("policy kind strings")
	}
	if PolicyKind(9).String() == "" {
		t.Error("unknown policy kind string")
	}
	if s := NewMembind(2).String(); s != "--membind=[2]" {
		t.Errorf("policy string = %q", s)
	}
}
