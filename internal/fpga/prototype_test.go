package fpga

import (
	"bytes"
	"strings"
	"testing"

	"cxlpmem/internal/cxl"
	"cxlpmem/internal/interconnect"
	"cxlpmem/internal/memdev"
	"cxlpmem/internal/units"
)

func paperCard(t *testing.T) *Prototype {
	t.Helper()
	p, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPaperConfiguration(t *testing.T) {
	p := paperCard(t)
	opts := p.opts
	if opts.Channels != 2 {
		t.Errorf("channels = %d, want 2", opts.Channels)
	}
	if opts.Rate != 1333 {
		t.Errorf("rate = %v, want 1333", opts.Rate)
	}
	if got := p.HDM().Capacity(); got != 16*units.GiB {
		t.Errorf("capacity = %v, want 16GiB (2x8GB)", got)
	}
	if !p.HDM().Persistent() {
		t.Error("paper card must be battery-backed")
	}
	if p.DeviceType() != cxl.Type3 {
		t.Errorf("device type = %v, want Type3", p.DeviceType())
	}
	if got := p.Media().Profile().Kind; got != memdev.KindCXLHDM {
		t.Errorf("media kind = %v, want CXL-HDM", got)
	}
}

func TestLinkIsGen5x16With64GBpsRaw(t *testing.T) {
	p := paperCard(t)
	// §2.2: "PCIe Gen5x16 connection, delivering a theoretical
	// bandwidth of up to 64GB/s".
	if got := p.TheoreticalLinkPeak().GBps(); got != 64 {
		t.Errorf("raw link peak = %v GB/s, want 64", got)
	}
	// Effective payload bandwidth is well below raw but far above the
	// DDR4-1333 media, so the media is the bottleneck as in the paper.
	eff := p.EffectiveCap().GBps()
	if eff <= 30 || eff >= 64 {
		t.Errorf("effective cap = %v GB/s, want in (30, 64)", eff)
	}
	media := p.Media().Profile().ReadPeak.GBps()
	if media >= eff {
		t.Errorf("media peak %v should be below link cap %v (media-bound prototype)", media, eff)
	}
}

func TestDVSECAdvertisesMem(t *testing.T) {
	p := paperCard(t)
	info, ok := p.Config().FindCXLDVSEC()
	if !ok {
		t.Fatal("no DVSEC")
	}
	if info.Caps&cxl.CapMem == 0 || info.Caps&cxl.CapIO == 0 {
		t.Errorf("caps = %v, want io+mem", info.Caps)
	}
	if info.HDMSize != uint64(16*units.GiB) {
		t.Errorf("hdm size = %d", info.HDMSize)
	}
	if p.Config().VendorID() != VendorIntel {
		t.Errorf("vendor = %#x", p.Config().VendorID())
	}
}

func TestEndToEndThroughRootPort(t *testing.T) {
	p := paperCard(t)
	rp := cxl.NewRootPort("rp0", p.Link())
	if err := rp.Attach(p); err != nil {
		t.Fatalf("link training failed: %v", err)
	}
	h, err := cxl.Enumerate(0, rp)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Windows) != 1 {
		t.Fatalf("windows = %d", len(h.Windows))
	}
	base := int64(h.Windows[0].Base)
	payload := []byte("persistent HPC diagnostics")
	if err := rp.WriteAt(payload, base); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(payload))
	if err := rp.ReadAt(out, base); err != nil {
		t.Fatal(err)
	}
	if string(out) != string(payload) {
		t.Errorf("round trip = %q", out)
	}
}

func TestBatteryBackedSurvivesPowerCycle(t *testing.T) {
	p := paperCard(t)
	if err := p.HDM().WriteAt([]byte{0xCA, 0xFE}, 4096); err != nil {
		t.Fatal(err)
	}
	p.HDM().PowerCycle()
	out := make([]byte, 2)
	if err := p.HDM().ReadAt(out, 4096); err != nil {
		t.Fatal(err)
	}
	if out[0] != 0xCA || out[1] != 0xFE {
		t.Error("battery-backed HDM lost data across power cycle")
	}
}

func TestNoBatteryLosesData(t *testing.T) {
	p, err := New(Options{NoBattery: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.HDM().Persistent() {
		t.Fatal("NoBattery card reports persistent")
	}
	if err := p.HDM().WriteAt([]byte{1}, 0); err != nil {
		t.Fatal(err)
	}
	p.HDM().PowerCycle()
	out := make([]byte, 1)
	if err := p.HDM().ReadAt(out, 0); err != nil {
		t.Fatal(err)
	}
	if out[0] != 0 {
		t.Error("volatile HDM retained data")
	}
}

func TestAblationOptions(t *testing.T) {
	// §2.2 upgrade paths: DDR4-3200, DDR5-5600, 4 channels, Gen6.
	cases := []struct {
		opts        Options
		wantPeakMin float64 // GB/s media peak lower bound
	}{
		{Options{Rate: 3200}, 35},
		{Options{Rate: 5600, Channels: 1}, 30},
		{Options{Channels: 4}, 30},
		{Options{LinkKind: interconnect.KindPCIe6}, 10},
	}
	for i, c := range cases {
		p, err := New(c.opts)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got := p.Media().Profile().ReadPeak.GBps(); got < c.wantPeakMin {
			t.Errorf("case %d: media peak = %v GB/s, want >= %v", i, got, c.wantPeakMin)
		}
	}
	p6, err := New(Options{LinkKind: interconnect.KindPCIe6})
	if err != nil {
		t.Fatal(err)
	}
	if got := p6.TheoreticalLinkPeak().GBps(); got != 128 {
		t.Errorf("Gen6 x16 raw = %v, want 128", got)
	}
	if _, err := New(Options{Channels: 5}); err == nil {
		t.Error("accepted 5 channels")
	}
	if _, err := New(Options{Channels: -1}); err == nil {
		t.Error("accepted negative channels")
	}
}

func TestUserStreamingInterface(t *testing.T) {
	p := paperCard(t)
	if v, err := p.ExecIO(CmdIdent); err != nil || v != IdentSignature {
		t.Errorf("CmdIdent = %#x, %v", v, err)
	}
	if v, err := p.ExecIO(CmdChannelCount); err != nil || v != 2 {
		t.Errorf("CmdChannelCount = %d, %v", v, err)
	}
	if v, err := p.ExecIO(CmdBatteryStatus); err != nil || v != 1 {
		t.Errorf("CmdBatteryStatus = %d, %v", v, err)
	}
	if _, err := p.ExecIO(CmdNop); err != nil {
		t.Errorf("CmdNop: %v", err)
	}
	if _, err := p.ExecIO(0xFFFF); err == nil {
		t.Error("unknown command accepted")
	}
	// The response lands in the CSR as well (CXL.io register file).
	v, err := p.Config().Read32(CSRStatus)
	if err != nil {
		t.Fatal(err)
	}
	if v&StatusError == 0 {
		t.Error("status register should carry the error bit after a bad command")
	}
	// Battery off reports 0.
	nb, err := New(Options{NoBattery: true})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := nb.ExecIO(CmdBatteryStatus); err != nil || v != 0 {
		t.Errorf("no-battery CmdBatteryStatus = %d, %v", v, err)
	}
}

func TestString(t *testing.T) {
	p := paperCard(t)
	s := p.String()
	if !strings.Contains(s, "Agilex7") || !strings.Contains(s, "DDR4-1333") {
		t.Errorf("String = %q", s)
	}
}

// TestPrototypeServicesBursts checks the card services bursts natively:
// a multi-line burst lands as one HDM access against the card DRAM and
// round-trips bit-exact through a root port.
func TestPrototypeServicesBursts(t *testing.T) {
	card, err := New(Options{ChannelCapacity: 8 * units.MiB})
	if err != nil {
		t.Fatal(err)
	}
	rp := cxl.NewRootPort("rp0", card.Link())
	if err := rp.Attach(card); err != nil {
		t.Fatal(err)
	}
	h, err := cxl.Enumerate(0, rp)
	if err != nil {
		t.Fatal(err)
	}
	base := h.Windows[0].Base
	in := make([]byte, 8*cxl.LineSize)
	for i := range in {
		in[i] = byte(i * 5)
	}
	if err := rp.WriteBurst(base, in); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(in))
	if err := rp.ReadBurst(base, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in, out) {
		t.Error("burst round trip through the card mismatched")
	}
	if card.Stats().WriteBursts.Load() != 1 || card.Stats().ReadBursts.Load() != 1 {
		t.Error("card did not service the bursts natively")
	}
}
