package main

import (
	"hash/crc32"
	"slices"
	"strconv"
	"time"
)

// epoch anchors now(). time.Since reads only the monotonic clock, which
// costs about half of a time.Now call on hosts whose vDSO clock is slow;
// every span boundary pays it twice.
var epoch = time.Now()

// now returns monotonic nanoseconds since process start.
func now() int64 { return int64(time.Since(epoch)) }

// rank is the 1-based nearest rank of the percentile bp, in basis
// points (hundredths of a percent), in n samples. Integer arithmetic
// keeps 99.99 of 100000 at rank 99990 exactly.
func rank(n, bp int) int {
	return max((n*bp+9999)/10000, 1)
}

// percentile returns the nearest-rank percentile bp (basis points) of
// sorted, or 0 for an empty sample.
func percentile[T int64 | float64](sorted []T, bp int) T {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(rank(len(sorted), bp), len(sorted))-1]
}

// windowNs is the length of the windows the measured loop is cut into:
// about 700 tx-small ops or three to four checkpoint-4way steps. An op
// longer than a window has a window of its own.
const windowNs = 2e6

// windowBp is the percentile, in basis points, at which the end-to-end
// metrics read the run's windows: the window median op time only 1
// window in 20 beats, and the rate only 1 in 20 exceeds. On a shared
// host the simulator runs at one speed or up to 1.8× slower, switching
// many times a second, and the share of slow windows varies from run to
// run between none and nearly all, so the median window moves with it.
// A change to the program moves the fast end with every window. It reads
// the program's own speed whenever a run has a few fast windows: over
// eight runs of ten 4.5 s processes, the 5th percentile spread 9.5%
// (tx-small) and 5.3% (checkpoint-4way) between runs, the median 10%
// and 15%, the mean over all windows 21% and 12%.
const windowBp = 500

// window is one window's totals and median op time.
type window struct {
	ops, ns, payload, p50 int64
}

// samples are one kind of op timings from the measured loop.
type samples struct {
	n, ns, payload int64
	windows        []window
	cur            window
	curLat         []int64 // the open window's op times
}

func (s *samples) add(ns, payload int64) {
	s.n++
	s.ns += ns
	s.payload += payload
	s.cur.ops++
	s.cur.ns += ns
	s.cur.payload += payload
	s.curLat = append(s.curLat, ns)
}

// closeWindow ends the open window, if it holds any op.
func (s *samples) closeWindow() {
	if s.cur.ops == 0 {
		return
	}
	slices.Sort(s.curLat)
	s.cur.p50 = percentile(s.curLat, 5000)
	s.windows = append(s.windows, s.cur)
	s.cur, s.curLat = window{}, s.curLat[:0]
}

// summary is the end-to-end view of a run's windows, each read at
// windowBp.
type summary struct {
	// p50 is the windows' median op time at windowBp, in ns.
	p50 float64
	// opsPerS and payloadMBps are the per-window rates — ops and payload
	// bytes over the time their ops took — that only windowBp of the
	// windows exceed.
	opsPerS, payloadMBps float64
}

func (s *samples) summarize() summary {
	n := len(s.windows)
	if n == 0 {
		return summary{}
	}
	p50s := make([]int64, n)
	ops, payload := make([]float64, n), make([]float64, n)
	for i, w := range s.windows {
		p50s[i] = w.p50
		ns := float64(max(w.ns, 1))
		ops[i] = float64(w.ops) / ns * 1e9
		payload[i] = float64(w.payload) / ns * 1e3
	}
	slices.Sort(p50s)
	// Rates fastest first, so that the same rank reads them.
	slices.Sort(ops)
	slices.Reverse(ops)
	slices.Sort(payload)
	slices.Reverse(payload)
	return summary{
		p50:         float64(percentile(p50s, windowBp)),
		opsPerS:     percentile(ops, windowBp),
		payloadMBps: percentile(payload, windowBp),
	}
}

// tailPercentiles are the tail ranks a run may report, highest first,
// in basis points.
var tailPercentiles = []int{9999, 9990, 9900, 9000, 5000}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// tailPercentile picks the highest percentile in tailPercentiles that
// leaves at least minBeyond of n samples above it, so a tail figure is
// never the single slowest op in disguise. ok is false when even the
// median lacks that support.
func tailPercentile(n int) (bp int, ok bool) {
	for _, bp := range tailPercentiles {
		if n-rank(n, bp) >= minBeyond {
			return bp, true
		}
	}
	return 0, false
}

// pctName renders a percentile for a metric name: 9990 → "p99.9".
func pctName(bp int) string { return "p" + strconv.FormatFloat(float64(bp)/100, 'f', -1, 64) }

// median returns the median of v (the mean of the middle pair for even
// lengths) without reordering v.
func median[T int64 | float64](v []T) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return float64(s[m])
	}
	return float64(s[m-1]+s[m]) / 2
}

// midMean returns the mean of the middle half of v (all of v below four
// samples) without reordering v. Like the median it ignores the
// outliers in either quarter, but it reads to a fraction of a unit, so
// two runs do not report the same integer by chance.
func midMean(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	var sum int64
	for _, x := range mid {
		sum += x
	}
	return float64(sum) / float64(len(mid))
}

// calibBuf is the fixed input of the host calibration loop.
var calibBuf = func() []byte {
	b := make([]byte, 1<<20)
	for i := range b {
		b[i] = byte(i * 131)
	}
	return b
}()

// calibSink keeps the calibration checksum live.
var calibSink uint32

// hostCalibration times a fixed CPU-only CRC-32C pass over 1 MiB and
// returns the median of 15 passes in microseconds. It touches nothing
// the benchmark measures, so a run on a slow or contended host shows up
// here rather than only as a mysteriously slow workload.
func hostCalibration() float64 {
	table := crc32.MakeTable(crc32.Castagnoli)
	passes := make([]int64, 15)
	for i := range passes {
		t0 := now()
		calibSink ^= crc32.Checksum(calibBuf, table)
		passes[i] = now() - t0
	}
	return median(passes) / 1e3
}
