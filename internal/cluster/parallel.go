package cluster

import (
	"fmt"
	"sync"
	"time"

	"cxlpmem/internal/units"
)

// RunParallel complements the analytical Scalability model with a real
// concurrent execution: instead of computing how the appliance pipeline
// would be shared, it drives k hosts from k goroutines, each streaming
// CXL.mem bursts through its own trained root port, the shared switch
// and its MLD partition, and measures the throughput each host actually
// achieved. This is the paper's future-work scenario (§6) run on the
// simulator itself — many hosts genuinely hammering one pooled
// appliance at once — and it exists both as an experiment and as a
// stress test: the whole data path (port VCs, flit codec, switch
// routing, partition windows, sharded media store) runs under real
// goroutine concurrency, so the race detector sees the traffic the
// analytical model only predicts.

// ParallelPoint is one measured row of the parallel scale-out run.
type ParallelPoint struct {
	// Hosts driven concurrently.
	Hosts int
	// BytesPerHost moved by each host (half written, half read back).
	BytesPerHost units.Size
	// Elapsed wall-clock time for the slowest host.
	Elapsed time.Duration
	// PerHost is each host's achieved throughput (bytes moved over the
	// host's own elapsed time).
	PerHost []units.Bandwidth
	// Aggregate is total bytes over the wall-clock elapsed time.
	Aggregate units.Bandwidth
	// Analytical is the aggregate the analytical Scalability model
	// predicts for the same host count (modelled hardware GB/s — a
	// different unit than the simulator's wall-clock throughput, but
	// the shapes must agree: fairness across hosts and saturation with
	// k).
	Analytical units.Bandwidth
}

// burstBytes is the transfer unit of the parallel driver: one maximal
// CXL.mem burst (64 lines).
const burstBytes = 64 * 64

// RunParallel drives the first k hosts concurrently, each moving
// bytesPerHost bytes through the real switch/MLD path (alternating
// maximal write and read bursts over the host's partition window), and
// reports the achieved throughput next to the analytical model's
// prediction for the same k (computed with threadsPerHost streaming
// threads). Every byte flows through the full port data path: flit
// encode/decode, CRC, VC tagging, the switch binding and the partition
// window check.
func (c *Cluster) RunParallel(k int, bytesPerHost units.Size, threadsPerHost int) (*ParallelPoint, error) {
	if k < 1 || k > len(c.Hosts) {
		return nil, fmt.Errorf("cluster: parallel host count %d outside 1..%d", k, len(c.Hosts))
	}
	if bytesPerHost < burstBytes || bytesPerHost%burstBytes != 0 {
		return nil, fmt.Errorf("cluster: bytes per host %d not a positive multiple of %d", bytesPerHost, burstBytes)
	}
	pts, err := c.scalabilityCached(threadsPerHost)
	if err != nil {
		return nil, err
	}

	pt := &ParallelPoint{
		Hosts:        k,
		BytesPerHost: bytesPerHost,
		PerHost:      make([]units.Bandwidth, k),
		Analytical:   pts[k-1].Aggregate,
	}
	errs := make([]error, k)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < k; i++ {
		h := c.Hosts[i]
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := make([]byte, burstBytes)
			for j := range buf {
				buf[j] = byte(i + j)
			}
			// Cycle through the first MiB of the partition window (or
			// the whole window when smaller) so the run measures the
			// wire, not first-touch page materialisation.
			span := h.Window.Size &^ (burstBytes - 1)
			if span > 1<<20 {
				span = 1 << 20
			}
			t0 := time.Now()
			var moved units.Size
			for off := uint64(0); moved < bytesPerHost; off = (off + burstBytes) % span {
				addr := h.Window.Base + off
				var werr error
				if moved%(2*burstBytes) == 0 {
					werr = h.IO.WriteBurst(addr, buf)
				} else {
					werr = h.IO.ReadBurst(addr, buf)
				}
				if werr != nil {
					errs[i] = werr
					return
				}
				moved += burstBytes
			}
			pt.PerHost[i] = units.RateOf(bytesPerHost, time.Since(t0))
		}(i)
	}
	wg.Wait()
	pt.Elapsed = time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	pt.Aggregate = units.RateOf(units.Size(k)*bytesPerHost, pt.Elapsed)
	return pt, nil
}

// scalabilityCached memoises the analytical model: RunParallel (and
// the benchmarks timing it) needs one row of the table per call, and
// the fabric is immutable after New, so the sweep is computed once per
// thread count.
func (c *Cluster) scalabilityCached(threadsPerHost int) ([]ScalePoint, error) {
	c.scaleMu.Lock()
	defer c.scaleMu.Unlock()
	if pts, ok := c.scaleCache[threadsPerHost]; ok {
		return pts, nil
	}
	pts, err := c.Scalability(threadsPerHost)
	if err != nil {
		return nil, err
	}
	if c.scaleCache == nil {
		c.scaleCache = make(map[int][]ScalePoint)
	}
	c.scaleCache[threadsPerHost] = pts
	return pts, nil
}
