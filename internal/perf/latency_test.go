package perf

import (
	"testing"

	"cxlpmem/internal/units"
)

func TestLoadedLatencyInflation(t *testing.T) {
	e := engine1(t)
	c0, err := e.M.Core(0)
	if err != nil {
		t.Fatal(err)
	}
	// Unloaded: matches the topology latency.
	l0, err := e.loadedLatency(c0, 0, 0, mixCopy)
	if err != nil {
		t.Fatal(err)
	}
	if l0.Ns() != 95 {
		t.Errorf("unloaded = %v, want 95ns", l0)
	}
	// Half load doubles the latency (1/(1-0.5)).
	node, _ := e.M.Node(0)
	half := units.Bandwidth(float64(node.EffectiveCap(0.5)) / 2)
	lHalf, err := e.loadedLatency(c0, 0, half, mixCopy)
	if err != nil {
		t.Fatal(err)
	}
	if got := lHalf.Ns(); got < 189 || got > 191 {
		t.Errorf("half-load = %v, want ~190ns", lHalf)
	}
	// Beyond saturation the clamp bounds the blow-up.
	lOver, err := e.loadedLatency(c0, 0, node.EffectiveCap(0.5)*3, mixCopy)
	if err != nil {
		t.Fatal(err)
	}
	want := 95.0 / (1 - 0.95)
	if got := lOver.Ns(); got < want*0.99 || got > want*1.01 {
		t.Errorf("overloaded = %v, want clamp at %vns", lOver, want)
	}
	// Negative offered load treated as zero.
	lNeg, err := e.loadedLatency(c0, 0, units.Bandwidth(-1), mixCopy)
	if err != nil || lNeg != l0 {
		t.Errorf("negative load = %v", lNeg)
	}
	// Missing node errors.
	if _, err := e.loadedLatency(c0, 9, 0, mixCopy); err == nil {
		t.Error("missing node accepted")
	}
}

func TestLatencyBandwidthCurve(t *testing.T) {
	e := engine1(t)
	c0, _ := e.M.Core(0)
	curve, err := e.LatencyBandwidthCurve(c0, 2, mixCopy, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 10 {
		t.Fatalf("points = %d", len(curve))
	}
	// Monotone: latency never decreases as offered load grows.
	for i := 1; i < len(curve); i++ {
		if curve[i].Latency < curve[i-1].Latency {
			t.Errorf("latency fell at point %d", i)
		}
		if curve[i].Offered <= curve[i-1].Offered {
			t.Errorf("offered not increasing at point %d", i)
		}
	}
	// CXL knee: the unloaded point is the 345 ns fabric latency.
	if got := curve[0].Latency.Ns(); got != 345 {
		t.Errorf("CXL unloaded = %v, want 345ns", got)
	}
	// Tiny point counts clamp to 2.
	c2, err := e.LatencyBandwidthCurve(c0, 0, mixCopy, 1)
	if err != nil || len(c2) != 2 {
		t.Errorf("clamped curve = %d points, %v", len(c2), err)
	}
	if _, err := e.LatencyBandwidthCurve(c0, 9, mixCopy, 4); err == nil {
		t.Error("missing node accepted")
	}
}
