package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// fakeClock returns the times in order, one per reading.
func fakeClock(t *testing.T, times ...int64) func() int64 {
	return func() int64 {
		if len(times) == 0 {
			t.Fatal("clock read more often than the test planned")
		}
		v := times[0]
		times = times[1:]
		return v
	}
}

// Self time is a span's duration minus the time its direct children
// cover, on a hand-built tree:
//
//	op [0,100)
//	├── pmemfs [10,60)
//	│   └── cxl.window [20,50)
//	│       └── cxl.memio [25,45)
//	└── pmemfs [70,90)
func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := &tracer{on: true, keep: true, clock: fakeClock(t, 0, 10, 20, 25, 45, 50, 60, 70, 90, 100)}
	tr.begin(layerOp)
	tr.begin(layerPmemfs)
	tr.begin(layerWindow)
	tr.begin(layerMemIO)
	tr.end()
	tr.end()
	tr.end()
	tr.begin(layerPmemfs)
	tr.end()
	tr.end()

	want := map[layer]struct{ self, dur float64 }{
		layerOp:     {30, 100},
		layerPmemfs: {40, 70},
		layerWindow: {10, 30},
		layerMemIO:  {20, 20},
	}
	for l, w := range want {
		if got := tr.selfNs(l); got != w.self {
			t.Errorf("%s self = %v, want %v", layerNames[l], got, w.self)
		}
		if got := tr.durNs(l); got != w.dur {
			t.Errorf("%s duration = %v, want %v", layerNames[l], got, w.dur)
		}
	}
	if tr.ops != 1 {
		t.Errorf("ops = %d, want 1", tr.ops)
	}

	// Timer compensation: every span loses spanIn from its own time,
	// and every child costs its parent spanOut of self time.
	tr.spanIn, tr.spanOut = 1, 2
	for l, w := range map[layer]float64{layerOp: 30 - 1 - 2*2, layerPmemfs: 40 - 2*1 - 1*2, layerWindow: 10 - 1 - 2, layerMemIO: 20 - 1} {
		if got := tr.selfNs(l); got != w {
			t.Errorf("%s compensated self = %v, want %v", layerNames[l], got, w)
		}
	}
	if got, w := tr.durNs(layerOp), 100.0-1-4*3; got != w {
		t.Errorf("op compensated duration = %v, want %v", got, w)
	}

	// Rescaled to an observed overhead of 30 ns per op, the five spans'
	// costs keep their 1:2 split.
	tr.matchOverhead(30)
	if tr.spanIn != 2 || tr.spanOut != 4 {
		t.Errorf("after matchOverhead(30): spanIn %v spanOut %v, want 2 and 4", tr.spanIn, tr.spanOut)
	}

	// The sampled span log keeps the tree.
	parents := []int32{-1, 0, 1, 2, 0}
	if len(tr.spans) != len(parents) {
		t.Fatalf("%d spans logged, want %d", len(tr.spans), len(parents))
	}
	for i, s := range tr.spans {
		if s.Parent != parents[i] || s.Op != 0 {
			t.Errorf("span %d (%s) parent %d op %d, want parent %d op 0", i, s.Name, s.Parent, s.Op, parents[i])
		}
	}
	if s := tr.spans[3]; s.Name != "cxl.memio" || s.Start != 25 || s.End != 45 {
		t.Errorf("span 3 = %+v", s)
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.writeSpans(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []span
	if err := json.Unmarshal(raw, &back); err != nil || len(back) != len(parents) {
		t.Fatalf("span log round trip: %d spans, %v", len(back), err)
	}
}

// Only every keepEvery-th op keeps its spans; totals cover every op.
func TestSpanLogSamplesOps(t *testing.T) {
	var clock int64
	tr := &tracer{on: true, keep: true, clock: func() int64 { clock += 5; return clock }}
	for i := 0; i < 2*keepEvery+1; i++ {
		tr.begin(layerOp)
		tr.begin(layerPmemfs)
		tr.end()
		tr.end()
	}
	if len(tr.spans) != 3*2 {
		t.Fatalf("%d spans logged, want the 2 spans of ops 0, %d and %d", len(tr.spans), keepEvery, 2*keepEvery)
	}
	if tr.calls[layerPmemfs] != 2*keepEvery+1 {
		t.Errorf("pmemfs calls = %d", tr.calls[layerPmemfs])
	}
	// A tracer switched off records nothing, and a nil one is safe.
	tr.on = false
	tr.begin(layerOp)
	tr.end()
	var none *tracer
	none.begin(layerOp)
	none.end()
	if tr.calls[layerOp] != 2*keepEvery+1 {
		t.Errorf("op calls = %d after an untraced op", tr.calls[layerOp])
	}
}
