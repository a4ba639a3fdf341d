// Package telemetry is the fabric-wide observability plane: a
// lock-free log-bucketed latency histogram cheap enough to live on the
// data path, a process-wide registry that unifies every subsystem's
// counters behind one exposition surface (Prometheus text, JSON, and
// the fabricctl top/trace tooling), and a flit-level flight recorder
// that keeps the wire history preceding a health event.
//
// The package is a leaf: it imports only the standard library, so every
// layer of the stack (cxl, coherency, ras, fabric, tiering, cluster)
// can hang its counters here without import cycles. Subsystems do not
// add locks to their data paths to participate — they register cheap
// Collector hooks that snapshot the atomic counters they already
// maintain, and only exposition pays for the walk.
package telemetry

import (
	"math"
	"math/bits"
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"
)

// Histogram bucket geometry: values below 2^histSubBits land in exact
// unit buckets; above that, each power-of-two octave splits into
// 2^histSubBits log-spaced sub-buckets (HDR style), so the relative
// quantile error is bounded by 2^-histSubBits ≈ 3.1% at any magnitude
// from 1 ns to ~292 years. The bucket index is a handful of ALU ops
// (bits.Len64, shift, mask) — no branches on the magnitude, no floats.
const (
	histSubBits    = 5
	histSubBuckets = 1 << histSubBits
	histSubMask    = histSubBuckets - 1
	// histBuckets covers every int64 magnitude: 64-histSubBits octaves
	// plus the exact region.
	histBuckets = (64 - histSubBits + 1) << histSubBits
)

// histMaxShards caps the per-CPU sharding. Each shard is its own run of
// cache lines, so concurrent recorders on different shards never
// contend; 8 shards flatten the contention curve on the machines the
// benches run on without making merge or memory cost silly.
const histMaxShards = 8

// histShard is one shard's bucket array plus its summary counters,
// padded so neighbouring shards do not false-share.
type histShard struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	_       [5]int64
	buckets [histBuckets]atomic.Int64
}

// Histogram is a lock-free latency histogram: Record is a few atomic
// adds on a shard chosen from the caller's stack address (a cheap
// per-goroutine spread), costs zero allocations, and is safe for any
// number of concurrent recorders. Snapshots merge the shards into one
// consistent-enough view (each bucket is read atomically; the total is
// the sum of momentarily-consistent buckets, the standard monotonic
// counter contract).
type Histogram struct {
	shardMask uintptr
	shards    []histShard
}

// NewHistogram builds a histogram sharded for the current GOMAXPROCS.
func NewHistogram() *Histogram {
	n := runtime.GOMAXPROCS(0)
	shards := 1
	for shards < n && shards < histMaxShards {
		shards <<= 1
	}
	return &Histogram{shardMask: uintptr(shards - 1), shards: make([]histShard, shards)}
}

// bucketOf maps a value to its bucket index. Negative values clamp to
// bucket 0 — latency cannot be negative, but a caller handing us a
// clock anomaly should not corrupt the array.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < histSubBuckets {
		return int(u)
	}
	exp := bits.Len64(u) - 1 - histSubBits
	return (exp+1)<<histSubBits + int((u>>uint(exp))&histSubMask)
}

// bucketMid returns the representative (midpoint) value of a bucket —
// the value quantile lookups report for samples that landed there.
func bucketMid(idx int) int64 {
	if idx < histSubBuckets {
		return int64(idx)
	}
	exp := uint(idx>>histSubBits - 1)
	low := uint64(histSubBuckets|idx&histSubMask) << exp
	return int64(low + 1<<exp/2)
}

// shard picks this goroutine's shard from a stack address: goroutine
// stacks live in distinct spans, so concurrent recorders spread across
// shards without any per-record shared state. Any shard is correct —
// the spread only buys contention relief.
func (h *Histogram) shard() *histShard {
	var probe byte
	return &h.shards[(uintptr(unsafe.Pointer(&probe))>>10)&h.shardMask]
}

// Record adds one observation. It is the hot-path entry point: zero
// allocations, a handful of nanoseconds, safe under any concurrency.
func (h *Histogram) Record(v int64) {
	s := h.shard()
	s.buckets[bucketOf(v)].Add(1)
	s.count.Add(1)
	s.sum.Add(v)
	for {
		m := s.max.Load()
		if v <= m || s.max.CompareAndSwap(m, v) {
			break
		}
	}
}

// RecordSince records the elapsed nanoseconds since start.
func (h *Histogram) RecordSince(start time.Time) {
	h.Record(int64(time.Since(start)))
}

// HistSnapshot is a merged point-in-time view of a histogram.
type HistSnapshot struct {
	Count   int64
	Sum     int64
	Max     int64
	buckets [histBuckets]int64
}

// Snapshot merges the shards into s (reusing its storage, so a caller
// polling in a loop allocates once).
func (h *Histogram) Snapshot(s *HistSnapshot) {
	s.Count, s.Sum, s.Max = 0, 0, 0
	for i := range s.buckets {
		s.buckets[i] = 0
	}
	for j := range h.shards {
		sh := &h.shards[j]
		s.Count += sh.count.Load()
		s.Sum += sh.sum.Load()
		if m := sh.max.Load(); m > s.Max {
			s.Max = m
		}
		for i := range sh.buckets {
			if n := sh.buckets[i].Load(); n != 0 {
				s.buckets[i] += n
			}
		}
	}
}

// Quantile reports the value at quantile q (0 < q <= 1) as the midpoint
// of the bucket holding the q·Count-th sample — within 2^-5 ≈ 3.1%
// relative error of the true order statistic. Returns 0 on an empty
// snapshot.
func (s *HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range s.buckets {
		seen += s.buckets[i]
		if seen >= rank {
			mid := bucketMid(i)
			if mid > s.Max && s.Max > 0 {
				return s.Max
			}
			return mid
		}
	}
	return s.Max
}

// mean reports the arithmetic mean, exact (from Sum), not bucketed.
func (s *HistSnapshot) mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}
