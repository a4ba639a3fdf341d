package topology

import (
	"strings"
	"testing"

	"cxlpmem/internal/fpga"
	"cxlpmem/internal/memdev"
	"cxlpmem/internal/units"
)

func setup1(t *testing.T) (*Machine, *fpga.Prototype) {
	t.Helper()
	m, card, err := Setup1(Setup1Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m, card
}

func TestSetup1Shape(t *testing.T) {
	m, card := setup1(t)
	if len(m.Sockets) != 2 {
		t.Fatalf("sockets = %d", len(m.Sockets))
	}
	if len(m.Cores()) != 20 {
		t.Errorf("cores = %d, want 20 (paper: 10 per socket after BIOS limit)", len(m.Cores()))
	}
	if len(m.Nodes) != 3 {
		t.Fatalf("nodes = %d, want 3 (two DDR5 + CXL)", len(m.Nodes))
	}
	n0, err := m.Node(0)
	if err != nil {
		t.Fatal(err)
	}
	if n0.Kind != NodeDRAM || n0.Device.Capacity() != 64*units.GiB {
		t.Errorf("node0 = %v", n0)
	}
	n2, err := m.Node(2)
	if err != nil {
		t.Fatal(err)
	}
	if n2.Kind != NodeCXL {
		t.Errorf("node2 kind = %v", n2.Kind)
	}
	if n2.Device.Capacity() != 16*units.GiB {
		t.Errorf("CXL capacity = %v, want 16GiB", n2.Device.Capacity())
	}
	if !n2.Persistent() {
		t.Error("CXL node must be persistent (battery-backed)")
	}
	if n0.Persistent() {
		t.Error("DDR5 node must be volatile")
	}
	if !strings.Contains(card.String(), "DDR4-1333") {
		t.Error("prototype should default to the paper card")
	}
	if n2.Window.Size != uint64(16*units.GiB) {
		t.Errorf("window size = %d", n2.Window.Size)
	}
}

func TestSetup1Paths(t *testing.T) {
	m, _ := setup1(t)
	c0, err := m.Core(0)
	if err != nil {
		t.Fatal(err)
	}
	c10, err := m.Core(10)
	if err != nil {
		t.Fatal(err)
	}
	// Local DRAM: empty path.
	p, err := m.Path(c0, 0)
	if err != nil || len(p.Links) != 0 {
		t.Errorf("core0->node0 path = %v, %v; want local", p, err)
	}
	// Remote socket: UPI.
	p, err = m.Path(c0, 1)
	if err != nil || len(p.Links) != 1 || p.Links[0] != m.UPI {
		t.Errorf("core0->node1 path = %v, %v; want UPI", p, err)
	}
	// CXL from attach socket: just the PCIe link.
	p, err = m.Path(c0, 2)
	if err != nil || len(p.Links) != 1 || p.Links[0].Kind.String() != "PCIe5" {
		t.Errorf("core0->node2 path = %v, %v; want CXL link", p, err)
	}
	// CXL from the far socket: UPI then PCIe.
	p, err = m.Path(c10, 2)
	if err != nil || len(p.Links) != 2 {
		t.Errorf("core10->node2 path = %v, %v; want UPI+CXL", p, err)
	}
	if _, err := m.Path(c0, 9); err == nil {
		t.Error("path to missing node accepted")
	}
}

func TestSetup1Latencies(t *testing.T) {
	m, _ := setup1(t)
	c0, _ := m.Core(0)
	c10, _ := m.Core(10)
	local, err := m.AccessLatency(c0, 0)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := m.AccessLatency(c0, 1)
	if err != nil {
		t.Fatal(err)
	}
	cxlLat, err := m.AccessLatency(c0, 2)
	if err != nil {
		t.Fatal(err)
	}
	cxlFar, err := m.AccessLatency(c10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if local.Ns() != 95 {
		t.Errorf("local = %v, want 95ns", local)
	}
	if remote.Ns() != 205 {
		t.Errorf("remote = %v, want 205ns (95+110 UPI)", remote)
	}
	// CXL is substantially further than the remote socket.
	if cxlLat <= remote {
		t.Errorf("CXL latency %v should exceed remote-socket %v", cxlLat, remote)
	}
	if cxlFar <= cxlLat {
		t.Errorf("far-socket CXL %v should exceed near-socket CXL %v", cxlFar, cxlLat)
	}
}

func TestSetup1CXLDeviceCap(t *testing.T) {
	m, _ := setup1(t)
	n2, _ := m.Node(2)
	// IP-slice bound: well under the 2-channel DDR4 media peak,
	// reproducing the implementation-constrained prototype.
	got := n2.EffectiveCap(0.5).GBps()
	if got < 8 || got > 9 {
		t.Errorf("CXL effective cap = %v GB/s, want ~8.3", got)
	}
	media := n2.Device.Profile().StreamPeak(0.5).GBps()
	if media <= got {
		t.Errorf("media peak %v should exceed IP cap %v", media, got)
	}
	// Ablation: 2 slices double the cap.
	m2, _, err := Setup1(Setup1Options{IPSlices: 2})
	if err != nil {
		t.Fatal(err)
	}
	n2b, _ := m2.Node(2)
	if got2 := n2b.EffectiveCap(0.5).GBps(); got2 < 1.9*got {
		t.Errorf("2 slices cap = %v, want ~2x %v", got2, got)
	}
	if _, _, err := Setup1(Setup1Options{IPSlices: -1}); err == nil {
		t.Error("negative slices accepted")
	}
}

func TestSetup2Shape(t *testing.T) {
	m, err := Setup2()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cores()) != 20 || len(m.Nodes) != 2 {
		t.Errorf("cores = %d nodes = %d", len(m.Cores()), len(m.Nodes))
	}
	n0, _ := m.Node(0)
	if got := n0.Device.Capacity(); got != 96*units.GiB {
		t.Errorf("node0 capacity = %v, want 96GiB (6x16)", got)
	}
	// Setup2 remote cap is far below Setup1's: the older UPI.
	m1, _ := setup1(t)
	if m.UPI.EffectiveCap() >= m1.UPI.EffectiveCap() {
		t.Error("Xeon Gold UPI should be slower than SPR UPI")
	}
	if m.Sockets[0].Model.MLP >= m1.Sockets[0].Model.MLP {
		t.Error("Xeon Gold MLP should be below SPR MLP (paper: larger SPR caches)")
	}
}

func TestDCPMMReference(t *testing.T) {
	m, err := DCPMMReference()
	if err != nil {
		t.Fatal(err)
	}
	n1, err := m.Node(1)
	if err != nil {
		t.Fatal(err)
	}
	if n1.Kind != NodePMem || !n1.Persistent() {
		t.Errorf("node1 = %v, want persistent pmem", n1)
	}
	if got := n1.Device.Profile().Kind; got != memdev.KindDCPMM {
		t.Errorf("media kind = %v", got)
	}
	// DIMM-attached: local path from socket0.
	c0, _ := m.Core(0)
	p, err := m.Path(c0, 1)
	if err != nil || len(p.Links) != 0 {
		t.Errorf("path = %v, %v; want local DIMM", p, err)
	}
}

func TestValidateCatchesBrokenMachines(t *testing.T) {
	// Core IDs not contiguous.
	m := &Machine{Name: "broken"}
	m.Sockets = []*Socket{{ID: 0, Model: SPRModel, Cores: []Core{{ID: 5, Socket: 0}}}}
	if err := m.Validate(); err == nil {
		t.Error("non-contiguous core IDs accepted")
	}
	// Wrong socket back-reference.
	m.Sockets = []*Socket{{ID: 0, Model: SPRModel, Cores: []Core{{ID: 0, Socket: 3}}}}
	if err := m.Validate(); err == nil {
		t.Error("wrong socket reference accepted")
	}
	// Empty socket.
	m.Sockets = []*Socket{{ID: 0, Model: SPRModel}}
	if err := m.Validate(); err == nil {
		t.Error("empty socket accepted")
	}
	// Duplicate node IDs.
	good, _ := Setup2()
	good.Nodes = append(good.Nodes, good.Nodes[0])
	if err := good.Validate(); err == nil {
		t.Error("duplicate node accepted")
	}
	// Unreachable node: remote DRAM with no UPI.
	m2, _ := Setup2()
	m2.UPI = nil
	if err := m2.Validate(); err == nil {
		t.Error("unreachable node accepted")
	}
}

func TestCoreAndSocketLookup(t *testing.T) {
	m, _ := setup1(t)
	if _, err := m.Core(99); err == nil {
		t.Error("missing core accepted")
	}
	if _, err := m.Socket(9); err == nil {
		t.Error("missing socket accepted")
	}
	s1, err := m.Socket(1)
	if err != nil || len(s1.Cores) != 10 {
		t.Errorf("socket1 = %v, %v", s1, err)
	}
	on := m.CoresOn(1)
	if len(on) != 10 || on[0].ID != 10 {
		t.Errorf("CoresOn(1) = %v", on)
	}
	if m.CoresOn(7) != nil {
		t.Error("CoresOn missing socket should be nil")
	}
}

func TestDescribe(t *testing.T) {
	m, _ := setup1(t)
	d := m.Describe()
	for _, want := range []string{"socket0", "cores 0-9", "cores 10-19", "node2", "cxl", "upi"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe missing %q:\n%s", want, d)
		}
	}
	if NodeDRAM.String() != "dram" || NodeCXL.String() != "cxl" || NodePMem.String() != "pmem" {
		t.Error("NodeKind strings")
	}
	if NodeKind(9).String() == "" {
		t.Error("unknown NodeKind string empty")
	}
}

// TestSetup1Interleaved checks the striped Setup #1 variant: N cards on
// N root ports behind one interleaved node, with the device and fabric
// caps scaling by the way count and the striped data path carrying real
// traffic end to end.
func TestSetup1Interleaved(t *testing.T) {
	single, _, err := Setup1(Setup1Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, card, err := Setup1(Setup1Options{
		FPGA:           fpga.Options{ChannelCapacity: 8 * units.MiB},
		InterleaveWays: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if card == nil {
		t.Fatal("no leg-0 card returned")
	}
	n2, err := m.Node(2)
	if err != nil {
		t.Fatal(err)
	}
	if n2.Stripe != nil {
		t.Cleanup(n2.Stripe.Close)
	}
	if n2.InterleaveWays != 4 || n2.Stripe == nil || len(n2.Ports) != 4 {
		t.Fatalf("striped node shape: ways=%d stripe=%v ports=%d", n2.InterleaveWays, n2.Stripe, len(n2.Ports))
	}
	if n2.Window.Size != n2.Stripe.Size() || n2.Window.Base != n2.Stripe.Base() {
		t.Error("node window disagrees with the stripe geometry")
	}

	// Device-side cap scales by the way count.
	s2, err := m.Node(2)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := single.Node(2)
	if got, want := s2.EffectiveCap(0.5).GBps(), 4*base.EffectiveCap(0.5).GBps(); got < want*0.99 || got > want*1.01 {
		t.Errorf("striped EffectiveCap = %.2f GB/s, want %.2f", got, want)
	}

	// The path traverses the aggregate striped fabric with 4x the
	// member cap and unchanged latency.
	c0, err := m.Core(0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Path(c0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Links) != 1 || p.Links[0] != n2.Fabric {
		t.Fatalf("striped path = %v, want the aggregate fabric link", p)
	}
	member := n2.Ports[0].Link()
	if got, want := p.Links[0].EffectiveCap().GBps(), 4*member.EffectiveCap().GBps(); got < want*0.99 || got > want*1.01 {
		t.Errorf("striped fabric cap = %.2f GB/s, want %.2f", got, want)
	}
	if p.Latency() != member.Latency {
		t.Errorf("striped fabric latency = %v, want one member traversal %v", p.Latency(), member.Latency)
	}

	// Real traffic round-trips through the striped window.
	in := make([]byte, 64<<10)
	for i := range in {
		in[i] = byte(i * 13)
	}
	if err := n2.Stripe.WriteBurst(n2.Window.Base, in); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(in))
	if err := n2.Stripe.ReadBurst(n2.Window.Base, out); err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("striped round trip mismatch at byte %d", i)
		}
	}
}
