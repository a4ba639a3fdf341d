package perf

import (
	"testing"
	"testing/quick"

	"cxlpmem/internal/numa"
	"cxlpmem/internal/topology"
	"cxlpmem/internal/units"
)

// mixCopy is STREAM Copy/Scale traffic: one read, one write.
var mixCopy = Mix{ReadFrac: 0.5}

// mixTriad is STREAM Add/Triad traffic: two reads, one write.
var mixTriad = Mix{ReadFrac: 2.0 / 3.0}

func engine1(t *testing.T) *Engine {
	t.Helper()
	m, _, err := topology.Setup1(topology.Setup1Options{})
	if err != nil {
		t.Fatal(err)
	}
	return New(m)
}

func engine2(t *testing.T) *Engine {
	t.Helper()
	m, err := topology.Setup2()
	if err != nil {
		t.Fatal(err)
	}
	return New(m)
}

func socketCores(t *testing.T, e *Engine, s topology.SocketID, n int) []topology.Core {
	t.Helper()
	cores, err := numa.PlaceOnSocket(e.M, s, n)
	if err != nil {
		t.Fatal(err)
	}
	return cores
}

func run(t *testing.T, e *Engine, cores []topology.Core, node topology.NodeID, mix Mix, mode AccessMode) Result {
	t.Helper()
	r, err := e.StreamBandwidth(cores, node, mix, mode)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// --- Paper claim: Class 1.a local DDR5 App-Direct saturates 20-22 GB/s.
func TestClaimLocalDDR5AppDirectSaturation(t *testing.T) {
	e := engine1(t)
	r := run(t, e, socketCores(t, e, 0, 10), 0, mixCopy, AppDirect)
	got := r.Total.GBps()
	if got < 20 || got > 22 {
		t.Errorf("local DDR5 App-Direct at 10 threads = %.2f GB/s, want 20-22 (paper §4 1.a)", got)
	}
}

// --- Paper claim: Class 1.b remote-socket DDR5 App-Direct loses ~30%.
func TestClaimRemoteSocketDrop(t *testing.T) {
	e := engine1(t)
	local := run(t, e, socketCores(t, e, 0, 10), 0, mixCopy, AppDirect).Total.GBps()
	remote := run(t, e, socketCores(t, e, 0, 10), 1, mixCopy, AppDirect).Total.GBps()
	drop := 1 - remote/local
	if drop < 0.22 || drop > 0.38 {
		t.Errorf("remote drop = %.0f%%, want ~30%% (local %.1f, remote %.1f)", drop*100, local, remote)
	}
	if remote < 14 || remote > 16.5 {
		t.Errorf("remote DDR5 App-Direct = %.2f GB/s, want ~15 (paper §4 1.b)", remote)
	}
}

// --- Paper claim: Class 1.b CXL DDR4 App-Direct is ~50% below remote
// DDR5, with 2-3 GB/s attributable to the CXL fabric.
func TestClaimCXLDrop(t *testing.T) {
	e := engine1(t)
	remoteDDR5 := run(t, e, socketCores(t, e, 0, 10), 1, mixCopy, AppDirect).Total.GBps()
	cxl := run(t, e, socketCores(t, e, 0, 10), 2, mixCopy, AppDirect).Total.GBps()
	ratio := cxl / remoteDDR5
	if ratio < 0.40 || ratio > 0.60 {
		t.Errorf("CXL/remote-DDR5 = %.2f, want ~0.5 (remote %.1f, cxl %.1f)", ratio, remoteDDR5, cxl)
	}
	// DDR5 has ~50% more bandwidth than DDR4, so a hypothetical
	// remote DDR4 would reach remoteDDR5/1.5; the residual gap to the
	// measured CXL figure is the fabric loss.
	hypotheticalDDR4 := remoteDDR5 / 1.5
	fabricLoss := hypotheticalDDR4 - cxl
	if fabricLoss < 1.5 || fabricLoss > 3.5 {
		t.Errorf("fabric loss = %.2f GB/s, want 2-3 (paper §4 1.b)", fabricLoss)
	}
}

// --- Paper claim: Class 2.a PMDK overhead is 10-15% over CC-NUMA.
func TestClaimPMDKOverhead(t *testing.T) {
	e := engine1(t)
	for _, node := range []topology.NodeID{1, 2} {
		mm := run(t, e, socketCores(t, e, 0, 10), node, mixCopy, MemoryMode).Total.GBps()
		ad := run(t, e, socketCores(t, e, 0, 10), node, mixCopy, AppDirect).Total.GBps()
		over := 1 - ad/mm
		if over < 0.10 || over > 0.15 {
			t.Errorf("node %d PMDK overhead = %.1f%%, want 10-15%%", node, over*100)
		}
	}
}

// --- Paper claim: Class 2.a DDR5 CC-NUMA holds a ~2x advantage over
// DDR4 (CXL-attached).
func TestClaimDDR5vsDDR4FactorTwo(t *testing.T) {
	e := engine1(t)
	ddr5 := run(t, e, socketCores(t, e, 0, 10), 1, mixCopy, MemoryMode).Total.GBps()
	cxl := run(t, e, socketCores(t, e, 0, 10), 2, mixCopy, MemoryMode).Total.GBps()
	ratio := ddr5 / cxl
	if ratio < 1.7 || ratio > 2.5 {
		t.Errorf("DDR5/DDR4-CXL CC-NUMA ratio = %.2f, want ~2 (paper §4 2.a)", ratio)
	}
}

// --- Paper claim: Class 2.a remote DDR4 (Setup #2) is comparable to
// CXL DDR4 within 2-5 GB/s, with a low-thread-count advantage to CXL
// from SPR's larger caches.
func TestClaimSetup2RemoteDDR4ComparableToCXL(t *testing.T) {
	e1 := engine1(t)
	e2 := engine2(t)
	cxl10 := run(t, e1, socketCores(t, e1, 0, 10), 2, mixCopy, MemoryMode).Total.GBps()
	ddr4r10 := run(t, e2, socketCores(t, e2, 0, 10), 1, mixCopy, MemoryMode).Total.GBps()
	gap := cxl10 - ddr4r10
	if gap < 0 || gap > 5 {
		t.Errorf("CXL %.1f vs Setup2 remote DDR4 %.1f: gap %.1f, want 0-5 GB/s", cxl10, ddr4r10, gap)
	}
	// Low thread count: CXL per-thread beats the old platform.
	cxl1 := run(t, e1, socketCores(t, e1, 0, 1), 2, mixCopy, MemoryMode).Total.GBps()
	ddr4r1 := run(t, e2, socketCores(t, e2, 0, 1), 1, mixCopy, MemoryMode).Total.GBps()
	if cxl1 <= ddr4r1 {
		t.Errorf("1 thread: CXL %.2f should exceed Setup2 remote DDR4 %.2f (SPR cache advantage)", cxl1, ddr4r1)
	}
}

// --- Paper claim: Class 1.c close affinity — remote threads past the
// first socket reduce the reported bandwidth; spread sits between; both
// converge at the full core count.
func TestClaimCloseSpreadAffinity(t *testing.T) {
	e := engine1(t)
	closeCores, err := numa.PlaceThreads(e.M, 20, numa.Close)
	if err != nil {
		t.Fatal(err)
	}
	spreadCores, err := numa.PlaceThreads(e.M, 20, numa.Spread)
	if err != nil {
		t.Fatal(err)
	}
	closeSweep, err := e.ThreadSweep(closeCores, 0, mixCopy, AppDirect)
	if err != nil {
		t.Fatal(err)
	}
	spreadSweep, err := e.ThreadSweep(spreadCores, 0, mixCopy, AppDirect)
	if err != nil {
		t.Fatal(err)
	}
	at := func(s []units.Bandwidth, n int) float64 { return s[n-1].GBps() }

	// Close at 10 threads: all local, saturated.
	if v := at(closeSweep, 10); v < 19 {
		t.Errorf("close@10 = %.1f, want saturated local", v)
	}
	// Adding remote threads (11th+) hurts under close.
	if at(closeSweep, 12) >= at(closeSweep, 10) {
		t.Errorf("close@12 (%.1f) should be below close@10 (%.1f): remote accesses negatively impact",
			at(closeSweep, 12), at(closeSweep, 10))
	}
	// Under close, adding a local core helps early on.
	if at(closeSweep, 2) <= at(closeSweep, 1) {
		t.Error("close@2 should exceed close@1: local accesses contribute positively")
	}
	// Spread at low counts sits between all-local close and the
	// remote-only rate: below close (which is all-local there).
	if at(spreadSweep, 4) >= at(closeSweep, 4) {
		t.Errorf("spread@4 (%.1f) should be below close@4 (%.1f): alternating accesses average down",
			at(spreadSweep, 4), at(closeSweep, 4))
	}
	// Convergence at full core count.
	c20, s20 := at(closeSweep, 20), at(spreadSweep, 20)
	diff := c20 - s20
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.5 {
		t.Errorf("close@20 (%.1f) and spread@20 (%.1f) should converge", c20, s20)
	}
}

// --- Paper claim: Class 1.c CXL target — both affinities converge for
// CXL too, at ~50% below on-node DDR5.
func TestClaimAffinityCXLConvergence(t *testing.T) {
	e := engine1(t)
	closeCores, _ := numa.PlaceThreads(e.M, 20, numa.Close)
	spreadCores, _ := numa.PlaceThreads(e.M, 20, numa.Spread)
	c := run(t, e, closeCores, 2, mixCopy, AppDirect).Total.GBps()
	s := run(t, e, spreadCores, 2, mixCopy, AppDirect).Total.GBps()
	if d := c - s; d > 0.5 || d < -0.5 {
		t.Errorf("CXL close@20 %.1f vs spread@20 %.1f should converge", c, s)
	}
	ddr5 := run(t, e, closeCores, 0, mixCopy, AppDirect).Total.GBps()
	if ratio := c / ddr5; ratio > 0.65 {
		t.Errorf("CXL@20 / DDR5@20 = %.2f, want well below 1 (paper: ~50%% degradation)", ratio)
	}
}

// --- Engine mechanics ---------------------------------------------------

func TestThreadDemandOrdering(t *testing.T) {
	e := engine1(t)
	c0, _ := e.M.Core(0)
	local, err := e.threadDemand(c0, 0)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := e.threadDemand(c0, 1)
	if err != nil {
		t.Fatal(err)
	}
	cxl, err := e.threadDemand(c0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !(local > remote && remote > cxl) {
		t.Errorf("demand ordering broken: local %.1f remote %.1f cxl %.1f GB/s",
			local.GBps(), remote.GBps(), cxl.GBps())
	}
	// Little's law check: MLP * 64B / 95ns.
	want := 12.0 * 64 / 95e-9 / 1e9
	if got := local.GBps(); got < want*0.99 || got > want*1.01 {
		t.Errorf("local demand = %.2f GB/s, want %.2f", got, want)
	}
	if _, err := e.threadDemand(c0, 9); err == nil {
		t.Error("missing node accepted")
	}
}

func TestSingleThreadUnconstrained(t *testing.T) {
	e := engine1(t)
	cores := socketCores(t, e, 0, 1)
	r := run(t, e, cores, 0, mixCopy, MemoryMode)
	d, _ := e.threadDemand(cores[0], 0)
	if r.Total != d {
		t.Errorf("1-thread total = %v, want raw demand %v", r.Total, d)
	}
	if r.Bottleneck != "demand" {
		t.Errorf("bottleneck = %q, want demand", r.Bottleneck)
	}
}

func TestBottleneckIdentification(t *testing.T) {
	e := engine1(t)
	// 10 local threads saturate the DDR5 device.
	r := run(t, e, socketCores(t, e, 0, 10), 0, mixCopy, MemoryMode)
	if r.Bottleneck != "device" {
		t.Errorf("local saturated bottleneck = %q, want device", r.Bottleneck)
	}
	// 10 remote threads saturate UPI.
	r = run(t, e, socketCores(t, e, 0, 10), 1, mixCopy, MemoryMode)
	if r.Bottleneck != "upi0" {
		t.Errorf("remote bottleneck = %q, want upi0", r.Bottleneck)
	}
}

func TestAllocationsRespectConstraints(t *testing.T) {
	e := engine1(t)
	closeCores, _ := numa.PlaceThreads(e.M, 20, numa.Close)
	r := run(t, e, closeCores, 0, mixCopy, MemoryMode)
	var sum, upiSum float64
	for _, f := range r.Flows {
		if f.Alloc > f.Demand {
			t.Errorf("core %d alloc %v exceeds demand %v", f.Core.ID, f.Alloc, f.Demand)
		}
		sum += float64(f.Alloc)
		if len(f.Path.Links) > 0 {
			upiSum += float64(f.Alloc)
		}
	}
	if sum > float64(r.DeviceCap)*1.0001 {
		t.Errorf("allocations %.2f exceed device cap %.2f", sum/1e9, r.DeviceCap.GBps())
	}
	if upiSum > float64(e.M.UPI.EffectiveCap())*1.0001 {
		t.Errorf("UPI flows %.2f exceed link cap", upiSum/1e9)
	}
}

// Property: raising the thread count on one socket toward one target
// never decreases the total (single-class flows have no stragglers).
func TestMonotoneSingleSocketProperty(t *testing.T) {
	e := engine1(t)
	f := func(nRaw uint8, nodeRaw uint8) bool {
		n := int(nRaw%9) + 1 // 1..9 so n+1 is valid
		node := topology.NodeID(nodeRaw % 3)
		a := run(t, e, socketCores(t, e, 0, n), node, mixCopy, MemoryMode).Total
		b := run(t, e, socketCores(t, e, 0, n+1), node, mixCopy, MemoryMode).Total
		return b >= a-units.Bandwidth(1) // tolerate float dust
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMixFactorAndAsymmetricMedia(t *testing.T) {
	// On the DCPMM reference, write-heavy mixes are much slower.
	m, err := topology.DCPMMReference()
	if err != nil {
		t.Fatal(err)
	}
	e := New(m)
	cores, err := numa.PlaceOnSocket(m, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	readHeavy := run(t, e, cores, 1, Mix{ReadFrac: 1}, MemoryMode).Total.GBps()
	writeHeavy := run(t, e, cores, 1, Mix{ReadFrac: 0}, MemoryMode).Total.GBps()
	if readHeavy < 6.0 || readHeavy > 6.7 {
		t.Errorf("DCPMM read = %.2f GB/s, want ~6.6 (published)", readHeavy)
	}
	if writeHeavy < 2.0 || writeHeavy > 2.4 {
		t.Errorf("DCPMM write = %.2f GB/s, want ~2.3 (published)", writeHeavy)
	}
	// Kernel factor applies multiplicatively.
	base := run(t, e, cores, 0, Mix{ReadFrac: 0.5}, MemoryMode).Total
	boosted := run(t, e, cores, 0, Mix{ReadFrac: 0.5, Factor: 1.05}, MemoryMode).Total
	ratio := float64(boosted) / float64(base)
	if ratio < 1.049 || ratio > 1.051 {
		t.Errorf("factor ratio = %v, want 1.05", ratio)
	}
}

func TestStreamBandwidthValidation(t *testing.T) {
	e := engine1(t)
	if _, err := e.StreamBandwidth(nil, 0, mixCopy, MemoryMode); err == nil {
		t.Error("no cores accepted")
	}
	cores := socketCores(t, e, 0, 2)
	if _, err := e.StreamBandwidth(cores, 9, mixCopy, MemoryMode); err == nil {
		t.Error("missing node accepted")
	}
}

func TestThreadSweepLengthAndShape(t *testing.T) {
	e := engine1(t)
	cores := socketCores(t, e, 0, 10)
	sweep, err := e.ThreadSweep(cores, 0, mixCopy, MemoryMode)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 10 {
		t.Fatalf("sweep length = %d", len(sweep))
	}
	// Rising then flat: the last value is the max.
	last := sweep[9]
	for i, v := range sweep {
		if v > last+units.Bandwidth(1) {
			t.Errorf("sweep[%d] = %v exceeds saturated value %v", i, v, last)
		}
	}
	if sweep[0] >= sweep[4] {
		t.Error("sweep should rise before saturating")
	}
}

func TestAccessModeString(t *testing.T) {
	if MemoryMode.String() != "memory-mode" || AppDirect.String() != "app-direct" {
		t.Error("mode strings")
	}
}

// --- Interleave scaling: an N-way-striped CXL window multiplies the
// device-side and fabric caps by N, so modelled STREAM bandwidth climbs
// with the way count until per-thread demand (Little's law over the
// unchanged access latency) becomes the binding constraint — the same
// saturation shape the paper's §2.2 bandwidth-lever discussion implies.
func TestInterleaveScalingCurve(t *testing.T) {
	rate := func(ways int) (Result, units.Bandwidth) {
		m, _, err := topology.Setup1(topology.Setup1Options{InterleaveWays: ways})
		if err != nil {
			t.Fatal(err)
		}
		if n2, err := m.Node(2); err == nil && n2.Stripe != nil {
			t.Cleanup(n2.Stripe.Close)
		}
		e := New(m)
		cores := socketCores(t, e, 0, 10)
		r := run(t, e, cores, 2, mixCopy, MemoryMode)
		return r, r.Total
	}
	_, w1 := rate(1)
	_, w2 := rate(2)
	r4, w4 := rate(4)
	_, w8 := rate(8)
	if !(w1 < w2 && w2 < w4 && w4 <= w8) {
		t.Fatalf("scaling not monotone: %v / %v / %v / %v", w1, w2, w4, w8)
	}
	// 2-way doubles an IP-slice-bound window almost exactly.
	if ratio := float64(w2) / float64(w1); ratio < 1.95 || ratio > 2.05 {
		t.Errorf("2-way ratio = %.2f, want ~2.0", ratio)
	}
	// 4-way runs into per-thread demand (10 threads × MLP-limited
	// stream), so the gain is real but sub-linear.
	if ratio := float64(w4) / float64(w1); ratio < 2.5 {
		t.Errorf("4-way ratio = %.2f, want >= 2.5", ratio)
	}
	if r4.Bottleneck == "device" && float64(w4) < 0.99*float64(r4.DeviceCap) {
		t.Errorf("4-way claims device bottleneck below the cap: %v < %v", w4, r4.DeviceCap)
	}
	// Past saturation, more ways change nothing: latency, not
	// bandwidth, is now the wall — exactly why the ablations stop at 8.
	if ratio := float64(w8) / float64(w4); ratio > 1.35 {
		t.Errorf("8-way/4-way ratio = %.2f: expected demand saturation", ratio)
	}
	// The latency story is unchanged by striping: leg fan-out does not
	// shorten a single access.
	m1, _, err := topology.Setup1(topology.Setup1Options{})
	if err != nil {
		t.Fatal(err)
	}
	m4, _, err := topology.Setup1(topology.Setup1Options{InterleaveWays: 4})
	if err != nil {
		t.Fatal(err)
	}
	if n2, err := m4.Node(2); err == nil && n2.Stripe != nil {
		t.Cleanup(n2.Stripe.Close)
	}
	c0, _ := m1.Core(0)
	l1, err := m1.AccessLatency(c0, 2)
	if err != nil {
		t.Fatal(err)
	}
	l4, err := m4.AccessLatency(c0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if l1 != l4 {
		t.Errorf("striping changed access latency: %v -> %v", l1, l4)
	}
}
