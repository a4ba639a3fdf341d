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
// and its granted extents, and measures the throughput each host
// actually achieved. This is the paper's future-work scenario (§6) run
// on the simulator itself — many hosts genuinely hammering one pooled
// appliance at once — and it exists both as an experiment and as a
// stress test: the whole data path (port VCs, flit codec, switch
// routing, extent tables, sharded media store) runs under real
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
	// PerHost is each host's achieved throughput: its bytes over the
	// time from the run's shared start to the end of its Drive, so hosts
	// that ran one after another (at one P) share the run's time instead
	// of each reading a solo rate. The last host to finish reads about
	// Aggregate/Hosts.
	PerHost []units.Bandwidth
	// Aggregate is total bytes over the wall-clock elapsed time.
	Aggregate units.Bandwidth
}

// RunParallel drives the first k hosts concurrently, one Drive of
// bytesPerHost bytes per host on its own goroutine, and reports the
// achieved throughput. Every byte flows through the full port data
// path: flit encode/decode, CRC, VC tagging, the switch binding and
// the tenant's extent table.
func (e *Elastic) RunParallel(k int, bytesPerHost units.Size) (*ParallelPoint, error) {
	if k < 1 || k > len(e.Hosts) {
		return nil, fmt.Errorf("cluster: parallel host count %d outside 1..%d", k, len(e.Hosts))
	}
	pt := &ParallelPoint{
		Hosts:        k,
		BytesPerHost: bytesPerHost,
		PerHost:      make([]units.Bandwidth, k),
	}
	errs := make([]error, k)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = e.Drive(i, bytesPerHost)
			pt.PerHost[i] = units.RateOf(bytesPerHost, time.Since(start))
		}()
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
