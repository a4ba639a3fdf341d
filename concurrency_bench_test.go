// Concurrency benchmarks: quantify how the multi-queue port and the
// multi-lane transaction machinery scale when many goroutines share one
// data path. Each benchmark has a serial baseline and a parallel
// variant pinned to (at least) 8 goroutines; comparing the two MB/s
// figures gives the aggregate-scaling factor CI's bench smoke records.
// On the steady state both paths allocate nothing (ReportAllocs).
package cxlpmem

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cxlpmem/internal/cluster"
	"cxlpmem/internal/cxl"
	"cxlpmem/internal/pmem"
	"cxlpmem/internal/units"
)

// parallelGoroutines is the goroutine count the parallel benchmarks
// target (the ISSUE's scaling criterion is quoted at 8).
const parallelGoroutines = 8

// setParallelism pins b.RunParallel to at least parallelGoroutines
// goroutines regardless of GOMAXPROCS.
func setParallelism(b *testing.B) {
	p := (parallelGoroutines + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0)
	b.SetParallelism(p)
}

// BenchmarkParallelPorts measures the aggregate CXL.mem burst
// throughput of one port driven by many goroutines, against the same
// loop on a single goroutine. Every goroutine owns a private 1 MiB
// region, so the comparison isolates data-path serialisation: with the
// multi-queue issue model and the sharded media store, the parallel
// aggregate should scale with cores instead of collapsing onto one
// lock.
func BenchmarkParallelPorts(b *testing.B) {
	const burst = cxl.MaxBurstLines * cxl.LineSize // 4 KiB
	const regionBytes = 1 << 20

	run := func(b *testing.B, rp *cxl.RootPort, region uint64, buf []byte, i int) {
		addr := region + uint64(i%(regionBytes/burst))*uint64(burst)
		if err := rp.WriteBurst(addr, buf); err != nil {
			b.Fatal(err)
		}
		if err := rp.ReadBurst(addr, buf); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("serial", func(b *testing.B) {
		rp, base := benchCXLPort(b)
		buf := make([]byte, burst)
		if err := rp.WriteBurst(base, buf); err != nil { // pre-touch
			b.Fatal(err)
		}
		b.SetBytes(2 * int64(burst))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, rp, base, buf, i)
		}
	})

	b.Run("parallel8", func(b *testing.B) {
		rp, base := benchCXLPort(b)
		var nextWorker atomic.Uint64
		setParallelism(b)
		b.SetBytes(2 * int64(burst))
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			region := base + (nextWorker.Add(1)%16)*regionBytes
			buf := make([]byte, burst)
			for i := 0; pb.Next(); i++ {
				run(b, rp, region, buf, i)
			}
		})
	})
}

// BenchmarkInterleavedStripes4K measures 4 KiB striped write+read
// cycles over a 4-way, 256 B-granule interleave set, the span a
// checkpoint step flushes per chunk: one caller ("serial") against 8
// goroutines on private 256 KiB regions ("parallel8"). Above one P
// both take the leg-worker path, and a caller that finds a leg's worker
// busy runs that leg itself, so neither allocates; at one P every leg
// runs on its caller.
func BenchmarkInterleavedStripes4K(b *testing.B) {
	const span, regionBytes = 4 << 10, 256 << 10
	cycle := func(s *cxl.InterleaveSet, region uint64, buf []byte, i int) error {
		addr := region + uint64(i%(regionBytes/span))*span
		if err := s.WriteBurst(addr, buf); err != nil {
			return err
		}
		return s.ReadBurst(addr, buf)
	}
	setup := func(b *testing.B) *cxl.InterleaveSet {
		s := benchInterleaveSet(b, 4, 256)
		if err := s.WriteBurst(s.Base(), make([]byte, 16*regionBytes)); err != nil { // pre-touch
			b.Fatal(err)
		}
		b.SetBytes(2 * span)
		b.ReportAllocs()
		b.ResetTimer()
		return s
	}

	b.Run("serial", func(b *testing.B) {
		s := setup(b)
		buf := make([]byte, span)
		for i := 0; i < b.N; i++ {
			if err := cycle(s, s.Base(), buf, i); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("parallel8", func(b *testing.B) {
		s := setup(b)
		var nextWorker atomic.Uint64
		setParallelism(b)
		b.RunParallel(func(pb *testing.PB) {
			region := s.Base() + (nextWorker.Add(1)%16)*regionBytes
			buf := make([]byte, span)
			for i := 0; pb.Next(); i++ {
				if err := cycle(s, region, buf, i); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// BenchmarkConcurrentTx measures transactional update throughput —
// pmemobj-style Begin/AddRange/Commit over 4 KiB objects — serial vs
// many goroutines on disjoint objects. The multi-lane undo log lets
// independent transactions snapshot and commit concurrently; the serial
// baseline bounds what one lane could do. serial64 is tx-small's 64 B
// transaction over the in-memory region, without the CXL path below
// it, so it times the pmem layer's own work: the lane claim, lifecycle
// lock sections and undo-log protocol. A lane is leased only while its
// transaction runs, so parallel8 waits for a lane only when more than
// TxLanes goroutines are inside Update at once; oversub16 makes every
// other Update wait.
func BenchmarkConcurrentTx(b *testing.B) {
	const objSize = 4096

	b.Run("serial64", func(b *testing.B) {
		p := benchPool(b, 64<<20)
		oid, err := p.Alloc(objSize)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			err := p.Update(oid, uint64(i%(objSize/64))*64, 64, func(v []byte) error {
				v[0] = byte(i)
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("serial", func(b *testing.B) {
		p := benchPool(b, 64<<20)
		oid, err := p.Alloc(objSize)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(objSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			err := p.Update(oid, 0, objSize, func(v []byte) error {
				v[i%objSize] = byte(i)
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("parallel8", func(b *testing.B) {
		p := benchPool(b, 64<<20)
		// One object per potential worker, handed out through a free
		// list so no object ever has two concurrent writers
		// (single-writer-per-object is the pmem contract).
		const objs = 64
		free := make(chan pmem.OID, objs)
		for i := 0; i < objs; i++ {
			oid, err := p.Alloc(objSize)
			if err != nil {
				b.Fatal(err)
			}
			free <- oid
		}
		setParallelism(b)
		b.SetBytes(objSize)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			oid := <-free
			defer func() { free <- oid }()
			for i := 0; pb.Next(); i++ {
				err := p.Update(oid, 0, objSize, func(v []byte) error {
					v[i%objSize] = byte(i)
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	})

	// oversub16 runs 2*TxLanes goroutines, each updating its own 64 B
	// object and yielding while it holds its lane, so every lane stays
	// leased and half the goroutines wait for one: the lane wait path
	// under oversubscription. max-wait-us is the longest any Update
	// took from its call to its body, a span that holds the wait.
	b.Run("oversub16", func(b *testing.B) {
		p := benchPool(b, 64<<20)
		const workers = 2 * pmem.TxLanes
		oids := make([]pmem.OID, workers)
		for i := range oids {
			var err error
			if oids[i], err = p.Alloc(64); err != nil {
				b.Fatal(err)
			}
		}
		waits := make([]time.Duration, workers)
		var wg sync.WaitGroup
		b.SetBytes(64)
		b.ResetTimer()
		for w := range workers {
			n := b.N / workers
			if w < b.N%workers {
				n++
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					start := time.Now()
					err := p.Update(oids[w], 0, 64, func(v []byte) error {
						waits[w] = max(waits[w], time.Since(start))
						v[0] = byte(i)
						runtime.Gosched()
						return nil
					})
					if err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		b.StopTimer()
		b.ReportMetric(float64(slices.Max(waits).Microseconds()), "max-wait-us")
	})
}

// BenchmarkParallelCluster runs the measured multi-host scale-out: k
// hosts concurrently streaming bursts at one pooled appliance through
// the real switch and each host's fixed 64 MiB share of extents
// (cluster.Elastic.RunParallel).
func BenchmarkParallelCluster(b *testing.B) {
	c, err := cluster.NewElastic(cluster.ElasticConfig{
		Hosts: 4, Pool: 4 * 64 * units.MiB, Quota: 64 * units.MiB, Initial: 64 * units.MiB,
	})
	if err != nil {
		b.Fatal(err)
	}
	const perHost = 4 << 20
	b.SetBytes(4 * perHost)
	b.ResetTimer()
	var last float64
	for i := 0; i < b.N; i++ {
		pt, err := c.RunParallel(4, perHost)
		if err != nil {
			b.Fatal(err)
		}
		last = pt.Aggregate.GBps()
	}
	b.StopTimer()
	b.ReportMetric(last, "measured-aggregate:GB/s")
}
