package telemetry

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestHistogramQuantileOracle checks the bucketed quantiles against the
// exact order statistics of the recorded sample set: every reported
// quantile must be within the geometry's 2^-5 relative error bound of
// the true value.
func TestHistogramQuantileOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	dists := map[string]func() int64{
		"uniform":  func() int64 { return rng.Int63n(1_000_000) },
		"exp":      func() int64 { return int64(rng.ExpFloat64() * 50_000) },
		"lognorm":  func() int64 { return int64(1 + 100*rng.Float64()*float64(uint64(1)<<uint(rng.Intn(30)))) },
		"constant": func() int64 { return 4242 },
		"tiny":     func() int64 { return rng.Int63n(20) },
	}
	for name, gen := range dists {
		h := NewHistogram()
		samples := make([]int64, 0, 20000)
		for i := 0; i < 20000; i++ {
			v := gen()
			samples = append(samples, v)
			h.Record(v)
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		var snap HistSnapshot
		h.Snapshot(&snap)
		if snap.Count != int64(len(samples)) {
			t.Fatalf("%s: count %d want %d", name, snap.Count, len(samples))
		}
		if snap.Max != samples[len(samples)-1] {
			t.Fatalf("%s: max %d want %d", name, snap.Max, samples[len(samples)-1])
		}
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1.0} {
			rank := int(q * float64(len(samples)))
			if rank > 0 {
				rank--
			}
			truth := samples[rank]
			got := snap.Quantile(q)
			// The bucketed value must sit within one sub-bucket of the
			// truth: |got-truth| <= truth/2^5 + 1 (the +1 covers the
			// exact-integer region).
			bound := truth>>histSubBits + 1
			if got < truth-bound || got > truth+bound {
				t.Errorf("%s: q%.3f got %d want %d±%d", name, q, got, truth, bound)
			}
		}
	}
	var empty HistSnapshot
	if empty.Quantile(0.99) != 0 || empty.mean() != 0 {
		t.Fatalf("empty snapshot must report zeros")
	}
}

// TestHistogramBucketRoundTrip checks that every bucket's midpoint maps
// back to the same bucket — the geometry is self-consistent.
func TestHistogramBucketRoundTrip(t *testing.T) {
	for idx := 0; idx < histBuckets; idx++ {
		mid := bucketMid(idx)
		if mid < 0 {
			// Top octaves overflow int64; out of recordable range.
			continue
		}
		if got := bucketOf(mid); got != idx {
			t.Fatalf("bucket %d: mid %d maps to bucket %d", idx, mid, got)
		}
	}
	if got := bucketOf(-5); got != 0 {
		t.Fatalf("negative value maps to bucket %d, want 0", got)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines
// (run under -race) and checks that no sample is lost.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	const goroutines = 8
	const perG = 50000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perG; i++ {
				h.Record(rng.Int63n(1 << 30))
			}
		}(int64(g))
	}
	done := make(chan struct{})
	go func() { // concurrent snapshots must not race or tear
		defer close(done)
		var snap HistSnapshot
		for i := 0; i < 100; i++ {
			h.Snapshot(&snap)
			var sum int64
			for b := range snap.buckets {
				sum += snap.buckets[b]
			}
			if sum > goroutines*perG {
				t.Errorf("snapshot bucket sum %d exceeds records issued", sum)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	<-done
	var snap HistSnapshot
	h.Snapshot(&snap)
	if snap.Count != goroutines*perG {
		t.Fatalf("count %d want %d", snap.Count, goroutines*perG)
	}
	var sum int64
	for b := range snap.buckets {
		sum += snap.buckets[b]
	}
	if sum != goroutines*perG {
		t.Fatalf("bucket sum %d want %d", sum, goroutines*perG)
	}
}

// TestHistogramRecordZeroAlloc is the hot-path contract: Record and
// RecordSince must not allocate.
func TestHistogramRecordZeroAlloc(t *testing.T) {
	h := NewHistogram()
	if avg := testing.AllocsPerRun(1000, func() { h.Record(1234) }); avg != 0 {
		t.Fatalf("Record allocates %.1f allocs/op, want 0", avg)
	}
	start := time.Now()
	if avg := testing.AllocsPerRun(1000, func() { h.RecordSince(start) }); avg != 0 {
		t.Fatalf("RecordSince allocates %.1f allocs/op, want 0", avg)
	}
}
