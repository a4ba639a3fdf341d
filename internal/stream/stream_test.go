package stream

import (
	"math"
	"strings"
	"testing"

	"cxlpmem/internal/numa"
	"cxlpmem/internal/perf"
	"cxlpmem/internal/pmem"
	"cxlpmem/internal/topology"
)

func TestOpBasics(t *testing.T) {
	if Copy.String() != "Copy" || Triad.String() != "Triad" || Op(9).String() == "" {
		t.Error("op strings")
	}
	if Copy.BytesPerElement() != 16 || Add.BytesPerElement() != 24 || Op(9).BytesPerElement() != 0 {
		t.Error("bytes per element")
	}
	if Copy.Mix().ReadFrac != 0.5 {
		t.Error("copy mix")
	}
	if m := Add.Mix(); m.ReadFrac < 0.66 || m.ReadFrac > 0.67 {
		t.Error("add mix")
	}
	if len(Ops) != 4 {
		t.Error("Ops order")
	}
}

func TestKernelsComputeCorrectValues(t *testing.T) {
	arr, err := NewVolatileArrays(1000)
	if err != nil {
		t.Fatal(err)
	}
	Init(arr)
	// After Init: a=2, b=2, c=0.
	if arr.A()[0] != 2 || arr.B()[500] != 2 || arr.C()[999] != 0 {
		t.Fatal("init values wrong")
	}
	if err := Execute(Copy, arr, DefaultScalar, 4); err != nil {
		t.Fatal(err)
	}
	if arr.C()[123] != 2 {
		t.Errorf("copy: c = %v, want 2", arr.C()[123])
	}
	if err := Execute(Scale, arr, DefaultScalar, 4); err != nil {
		t.Fatal(err)
	}
	if arr.B()[321] != 6 {
		t.Errorf("scale: b = %v, want 6", arr.B()[321])
	}
	if err := Execute(Add, arr, DefaultScalar, 4); err != nil {
		t.Fatal(err)
	}
	if arr.C()[77] != 8 {
		t.Errorf("add: c = %v, want 8", arr.C()[77])
	}
	if err := Execute(Triad, arr, DefaultScalar, 4); err != nil {
		t.Fatal(err)
	}
	if arr.A()[42] != 30 {
		t.Errorf("triad: a = %v, want 30", arr.A()[42])
	}
}

func TestValidateAfterNIterations(t *testing.T) {
	arr, err := NewVolatileArrays(4096)
	if err != nil {
		t.Fatal(err)
	}
	Init(arr)
	const ntimes = 10
	for k := 0; k < ntimes; k++ {
		for _, op := range Ops {
			if err := Execute(op, arr, DefaultScalar, 8); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := validate(arr, ntimes, DefaultScalar); err != nil {
		t.Errorf("validation failed: %v", err)
	}
	// A corrupted element fails validation.
	arr.A()[100] = math.Pi * 1e6
	if err := validate(arr, ntimes, DefaultScalar); err == nil {
		t.Error("corruption passed validation")
	}
}

func TestExecuteValidation(t *testing.T) {
	arr, _ := NewVolatileArrays(16)
	if err := Execute(Op(99), arr, 3, 1); err == nil {
		t.Error("unknown op accepted")
	}
	bad := &VolatileArrays{a: make([]float64, 4), b: make([]float64, 5), c: make([]float64, 4)}
	if err := Execute(Copy, bad, 3, 1); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := NewVolatileArrays(0); err == nil {
		t.Error("zero length accepted")
	}
}

func TestSingleWorkerAndManyWorkersAgree(t *testing.T) {
	run := func(workers int) []float64 {
		arr, _ := NewVolatileArrays(10000)
		Init(arr)
		for k := 0; k < 3; k++ {
			for _, op := range Ops {
				if err := Execute(op, arr, DefaultScalar, workers); err != nil {
					t.Fatal(err)
				}
			}
		}
		return arr.A()
	}
	a1, a8 := run(1), run(8)
	for i := range a1 {
		if a1[i] != a8[i] {
			t.Fatalf("worker-count divergence at %d: %v vs %v", i, a1[i], a8[i])
		}
	}
}

func testPool(t *testing.T, size int) *pmem.Pool {
	t.Helper()
	r := newTestRegion(size)
	p, err := pmem.Create(r, Layout)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPmemArraysAllocAndRun(t *testing.T) {
	pool := testPool(t, 8<<20)
	arr, err := AllocPmemArrays(pool, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if arr.n != 10000 {
		t.Error("N mismatch")
	}
	Init(arr)
	const ntimes = 5
	for k := 0; k < ntimes; k++ {
		for _, op := range Ops {
			if err := Execute(op, arr, DefaultScalar, 4); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := validate(arr, ntimes, DefaultScalar); err != nil {
		t.Errorf("STREAM-PMem validation failed: %v", err)
	}
	if err := arr.Persist(); err != nil {
		t.Fatal(err)
	}
	if pool.Stats().Persists.Load() == 0 {
		t.Error("persist did not reach the pool")
	}
}

func TestPmemArraysSurviveReopen(t *testing.T) {
	r := newTestRegion(8 << 20)
	pool, err := pmem.Create(r, Layout)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := AllocPmemArrays(pool, 5000)
	if err != nil {
		t.Fatal(err)
	}
	Init(arr)
	if err := Execute(Copy, arr, DefaultScalar, 2); err != nil {
		t.Fatal(err)
	}
	if err := arr.Persist(); err != nil {
		t.Fatal(err)
	}
	pool.SimulateCrash()

	pool2, err := pmem.Open(r, Layout)
	if err != nil {
		t.Fatal(err)
	}
	arr2, err := OpenPmemArrays(pool2)
	if err != nil {
		t.Fatal(err)
	}
	if arr2.n != 5000 {
		t.Fatalf("N after reopen = %d", arr2.n)
	}
	// a was doubled by Init (2.0), c holds the Copy of a.
	if arr2.A()[4999] != 2.0 || arr2.C()[0] != 2.0 || arr2.B()[100] != 2.0 {
		t.Errorf("array contents lost: a=%v b=%v c=%v", arr2.A()[4999], arr2.B()[100], arr2.C()[0])
	}
	if arr2.oa.IsNull() || arr2.ob.IsNull() || arr2.oc.IsNull() {
		t.Error("OIDs null after reopen")
	}
}

func TestPmemArraysGuards(t *testing.T) {
	pool := testPool(t, 8<<20)
	if _, err := AllocPmemArrays(pool, 0); err == nil {
		t.Error("zero length accepted")
	}
	if _, err := OpenPmemArrays(pool); err == nil {
		t.Error("open before alloc accepted")
	}
	if _, err := AllocPmemArrays(pool, 100); err != nil {
		t.Fatal(err)
	}
	// Double alloc refused: the pool already carries arrays.
	if _, err := AllocPmemArrays(pool, 100); err == nil {
		t.Error("double alloc accepted")
	}
	// Pool too small for the arrays.
	small := testPool(t, 1<<20)
	if _, err := AllocPmemArrays(small, 1<<20); err == nil {
		t.Error("oversized arrays accepted")
	}
}

func benchFor(t *testing.T, node topology.NodeID, mode perf.AccessMode, threads int) *Bench {
	t.Helper()
	m, _, err := topology.Setup1(topology.Setup1Options{})
	if err != nil {
		t.Fatal(err)
	}
	cores, err := numa.PlaceOnSocket(m, 0, threads)
	if err != nil {
		t.Fatal(err)
	}
	return &Bench{Engine: perf.New(m), Cores: cores, Node: node, Mode: mode}
}

func TestBenchModelOnly(t *testing.T) {
	b := benchFor(t, 0, perf.AppDirect, 10)
	results, err := b.Run(nil, Config{ModelOnly: true, N: 100_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		// The paper's headline: local DDR5 App-Direct saturates
		// 20-22 GB/s across all four operations.
		got := r.BestRate.GBps()
		if got < 19.5 || got > 22.5 {
			t.Errorf("%s best rate = %.2f GB/s, want ~20-22", r.Op, got)
		}
		if r.MinTime > r.AvgTime || r.AvgTime > r.MaxTime {
			t.Errorf("%s time ordering broken: %v %v %v", r.Op, r.MinTime, r.AvgTime, r.MaxTime)
		}
		if r.Bytes <= 0 {
			t.Error("bytes not recorded")
		}
	}
	// Triad reports slightly above Copy, the usual STREAM shape.
	if results[3].BestRate <= results[0].BestRate {
		t.Error("Triad should edge out Copy")
	}
}

func TestBenchRealDataOnPmem(t *testing.T) {
	b := benchFor(t, 2, perf.AppDirect, 4)
	pool := testPool(t, 8<<20)
	arr, err := AllocPmemArrays(pool, 20000)
	if err != nil {
		t.Fatal(err)
	}
	results, err := b.Run(arr, Config{NTimes: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatal("missing results")
	}
	// The real pass persisted through the pool.
	if pool.Stats().Persists.Load() == 0 {
		t.Error("no persists recorded")
	}
}

func TestBenchDeterminism(t *testing.T) {
	b := benchFor(t, 2, perf.MemoryMode, 5)
	r1, err := b.Run(nil, Config{ModelOnly: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := b.Run(nil, Config{ModelOnly: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Errorf("non-deterministic result for %s", r1[i].Op)
		}
	}
}

func TestBenchValidation(t *testing.T) {
	b := benchFor(t, 0, perf.MemoryMode, 2)
	b2 := *b
	b2.Engine = nil
	if _, err := b2.Run(nil, Config{ModelOnly: true}); err == nil {
		t.Error("nil engine accepted")
	}
	b3 := *b
	b3.Cores = nil
	if _, err := b3.Run(nil, Config{ModelOnly: true}); err == nil {
		t.Error("no cores accepted")
	}
	if _, err := b.Run(nil, Config{}); err == nil {
		t.Error("real run without arrays accepted")
	}
}

func TestRateAndHeader(t *testing.T) {
	b := benchFor(t, 0, perf.MemoryMode, 10)
	rate, err := b.Rate(Triad)
	if err != nil {
		t.Fatal(err)
	}
	if rate.GBps() < 20 {
		t.Errorf("rate = %v", rate)
	}
	if !strings.Contains(Header(), "BestMB/s") {
		t.Error("header")
	}
	r, _ := b.Run(nil, Config{ModelOnly: true})
	if s := r[0].String(); !strings.Contains(s, "Copy") {
		t.Errorf("result string = %q", s)
	}
}

// TestStripedStreamScaling wires STREAM to the interleaved Setup #1
// variants: the same Bench against an N-way-striped CXL node reports
// the scaled rate for every kernel, giving the EXPERIMENTS.md 1/2/4/8
// curve in one call.
func TestStripedStreamScaling(t *testing.T) {
	triad := func(ways int) float64 {
		m, _, err := topology.Setup1(topology.Setup1Options{InterleaveWays: ways})
		if err != nil {
			t.Fatal(err)
		}
		if n2, err := m.Node(2); err == nil && n2.Stripe != nil {
			t.Cleanup(n2.Stripe.Close)
		}
		cores, err := numa.PlaceOnSocket(m, 0, 10)
		if err != nil {
			t.Fatal(err)
		}
		b := &Bench{Engine: perf.New(m), Cores: cores, Node: 2, Mode: perf.AppDirect}
		r, err := b.Rate(Triad)
		if err != nil {
			t.Fatal(err)
		}
		return r.GBps()
	}
	w1, w2, w4 := triad(1), triad(2), triad(4)
	if ratio := w2 / w1; ratio < 1.95 || ratio > 2.05 {
		t.Errorf("2-way STREAM Triad ratio = %.2f, want ~2.0", ratio)
	}
	if ratio := w4 / w1; ratio < 2.5 {
		t.Errorf("4-way STREAM Triad ratio = %.2f, want >= 2.5", ratio)
	}
	// The full Bench.Run report works over a striped node too (model
	// plus real data movement and validation).
	m, _, err := topology.Setup1(topology.Setup1Options{InterleaveWays: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n2, err := m.Node(2); err == nil && n2.Stripe != nil {
		t.Cleanup(n2.Stripe.Close)
	}
	cores, err := numa.PlaceOnSocket(m, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	b := &Bench{Engine: perf.New(m), Cores: cores, Node: 2, Mode: perf.AppDirect}
	arr, err := NewVolatileArrays(20000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Run(arr, Config{NTimes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(Ops) {
		t.Fatalf("striped bench returned %d results", len(res))
	}
	for _, r := range res {
		if r.BestRate <= 0 {
			t.Errorf("%s: non-positive striped rate", r.Op)
		}
	}
}
