package interconnect

import (
	"strings"
	"testing"

	"cxlpmem/internal/units"
)

func TestPCIe5x16RawPeak(t *testing.T) {
	l, err := NewPCIe("cxl", KindPCIe5, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The paper quotes "up to 64GB/s in each direction via a 16-lane
	// link" for CXL 1.1/2.0 over PCIe 5.0.
	if got := l.RawPeak().GBps(); got != 64 {
		t.Errorf("PCIe5 x16 raw peak = %v GB/s, want 64", got)
	}
	// Effective cap is derated by protocol efficiency.
	if got := l.EffectiveCap().GBps(); got != 48 {
		t.Errorf("PCIe5 x16 effective = %v GB/s, want 48", got)
	}
}

func TestPCIe6DoublesPCIe5(t *testing.T) {
	l5, err := NewPCIe("g5", KindPCIe5, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	l6, err := NewPCIe("g6", KindPCIe6, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	// "CXL 3.0 utilizes PCIe 6.0, doubling the speed to 64 GT/s" (§1.3).
	if got, want := l6.RawPeak().GBps(), 2*l5.RawPeak().GBps(); got != want {
		t.Errorf("PCIe6 raw = %v, want %v", got, want)
	}
}

func TestExplicitCapOverrides(t *testing.T) {
	l := &Link{Name: "x", Kind: KindPCIe5, Lanes: 16, Cap: units.GBps(10)}
	if got := l.EffectiveCap().GBps(); got != 10 {
		t.Errorf("explicit cap = %v, want 10", got)
	}
}

func TestCustomEfficiency(t *testing.T) {
	l := &Link{Name: "x", Kind: KindPCIe5, Lanes: 16, Efficiency: 0.5}
	if got := l.EffectiveCap().GBps(); got != 32 {
		t.Errorf("eff=0.5 cap = %v, want 32", got)
	}
}

func TestUPIDefaults(t *testing.T) {
	l := NewUPI("upi0", 0, 0)
	if got := l.EffectiveCap().GBps(); got != 17.5 {
		t.Errorf("UPI default cap = %v, want 17.5", got)
	}
	if got := l.Latency.Ns(); got != 110 {
		t.Errorf("UPI default latency = %v, want 110", got)
	}
	custom := NewUPI("upi1", units.GBps(9.5), units.Nanoseconds(130))
	if custom.EffectiveCap().GBps() != 9.5 || custom.Latency.Ns() != 130 {
		t.Error("UPI custom parameters not honoured")
	}
}

func TestNewPCIeValidation(t *testing.T) {
	if _, err := NewPCIe("x", KindUPI, 16, 0); err == nil {
		t.Error("accepted UPI kind for PCIe constructor")
	}
	if _, err := NewPCIe("x", KindPCIe5, 0, 0); err == nil {
		t.Error("accepted 0 lanes")
	}
	if _, err := NewPCIe("x", KindPCIe5, 32, 0); err == nil {
		t.Error("accepted 32 lanes")
	}
}

func TestPathAccumulation(t *testing.T) {
	upi := NewUPI("upi0", units.GBps(17.5), units.Nanoseconds(110))
	pcie, err := NewPCIe("cxl", KindPCIe5, 16, units.Nanoseconds(120))
	if err != nil {
		t.Fatal(err)
	}
	p := Path{Links: []*Link{upi, pcie}}
	if got := p.Latency().Ns(); got != 230 {
		t.Errorf("path latency = %v, want 230", got)
	}
	if !p.Contains(upi) || !p.Contains(pcie) {
		t.Error("Contains false negative")
	}
	other := NewUPI("upi9", 0, 0)
	if p.Contains(other) {
		t.Error("Contains false positive")
	}
}

func TestEmptyPathIsLocal(t *testing.T) {
	var p Path
	if p.Latency() != 0 {
		t.Error("empty path latency != 0")
	}
	if p.String() != "local" {
		t.Errorf("empty path string = %q", p.String())
	}
}

func TestStringers(t *testing.T) {
	upi := NewUPI("upi0", 0, 0)
	if s := upi.String(); !strings.Contains(s, "upi0") || !strings.Contains(s, "UPI") {
		t.Errorf("link string = %q", s)
	}
	pcie, _ := NewPCIe("cxl", KindPCIe5, 16, 0)
	if s := pcie.String(); !strings.Contains(s, "x16") {
		t.Errorf("pcie string = %q", s)
	}
	p := Path{Links: []*Link{upi, pcie}}
	if s := p.String(); s != "upi0 -> cxl" {
		t.Errorf("path string = %q", s)
	}
	for _, k := range []Kind{KindUPI, KindPCIe4, KindPCIe5, KindPCIe6, KindOnDie, Kind(42)} {
		if k.String() == "" {
			t.Errorf("kind %d empty string", k)
		}
	}
}

func TestOnDieHasNoLaneBandwidth(t *testing.T) {
	l := &Link{Name: "die", Kind: KindOnDie}
	if l.EffectiveCap() != 0 {
		t.Error("on-die link without explicit cap should have 0 cap")
	}
	if l.RawPeak() != 0 {
		t.Error("on-die raw peak should be 0 without explicit cap")
	}
}
