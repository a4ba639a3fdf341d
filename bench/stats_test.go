package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]int64, 100)
	for i := range hundred {
		hundred[i] = int64(i + 1)
	}
	for _, c := range []struct {
		sorted []int64
		bp     int
		want   int64
	}{
		{hundred, 5000, 50},
		{hundred, 9000, 90},
		{hundred, 9900, 99},
		{hundred, 9999, 100},
		{[]int64{7}, 5000, 7},
		{[]int64{1, 2}, 5000, 1},
		{[]int64{1, 2, 3}, 9000, 3},
		{nil, 5000, 0},
	} {
		if got := percentile(c.sorted, c.bp); got != c.want {
			t.Errorf("percentile(%d samples, %d bp) = %d, want %d", len(c.sorted), c.bp, got, c.want)
		}
	}
}

// The reported tail is the highest percentile that leaves at least ten
// samples above it.
func TestTailPercentileSampleRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want int // basis points; 0 when no percentile qualifies
	}{
		{100000, 9999},
		{99999, 9990},
		{10000, 9990},
		{1000, 9900},
		{999, 9000},
		{120, 9000},
		{100, 9000},
		{99, 5000},
		{20, 5000},
		{19, 0},
	} {
		bp, ok := tailPercentile(c.n)
		if !ok {
			bp = 0
		}
		if bp != c.want {
			t.Errorf("tailPercentile(%d) = %d bp, want %d", c.n, bp, c.want)
		}
		if ok && c.n-rank(c.n, bp) < minBeyond {
			t.Errorf("tailPercentile(%d) = %d bp leaves %d samples beyond", c.n, bp, c.n-rank(c.n, bp))
		}
	}
	if got := pctName(9990); got != "p99.9" {
		t.Errorf("pctName(9990) = %q", got)
	}
}

// The summary reads the windows at the fast end: the median op time only
// 1 window in 20 beats, and the rate only 1 in 20 exceeds.
func TestSummaryReadsWindowsAtFastEnd(t *testing.T) {
	var s samples
	// Forty windows of ten ops, each op 64 B: base+0 … base+9 ns; the
	// second twenty are slow.
	bases := []int64{300, 104, 200, 98, 102, 210, 100, 106, 96, 101, 150, 99, 103, 97, 105, 250, 107, 95, 108, 94}
	for _, b := range bases[:20] {
		bases = append(bases, b+1000)
	}
	for w, ns := range bases {
		for i := 0; i < 10; i++ {
			s.add(ns+int64(i), 64)
		}
		s.closeWindow()
		if len(s.windows) != w+1 {
			t.Fatalf("%d windows after closing window %d", len(s.windows), w)
		}
	}
	s.closeWindow() // empty: no new window
	if len(s.windows) != len(bases) {
		t.Fatalf("%d windows, want %d", len(s.windows), len(bases))
	}
	if w := s.windows[2]; w.ops != 10 || w.ns != 2045 || w.payload != 640 || w.p50 != 204 {
		t.Errorf("window 2 = %+v", w)
	}
	got := s.summarize()
	// Rank 2 of 40 ascending is the 95-ns window: p50 99, and its ten ops
	// took 995 ns, the 2nd highest rate, which the same rank reads among
	// rates fastest first.
	// A variable, not a constant, so the division rounds as at run time.
	ns := 995.0
	want := summary{
		p50:         99,
		opsPerS:     10 / ns * 1e9,
		payloadMBps: 640 / ns * 1e3,
	}
	if got != want {
		t.Errorf("summary = %+v, want %+v", got, want)
	}
	if s.n != 400 || s.payload != 400*64 {
		t.Errorf("totals: %d ops, %d B", s.n, s.payload)
	}
	if (&samples{}).summarize() != (summary{}) {
		t.Error("an empty run does not summarise to zero")
	}
}
