// Package stream implements the paper's measurement instruments: the
// STREAM benchmark (McCalpin) with its Copy, Scale, Add and Triad
// kernels, and STREAM-PMem, the PMDK variant whose three working arrays
// are persistent objects allocated from a pmemobj pool (paper §3.1,
// Listings 1-2).
//
// Data movement is real — the kernels run over actual float64 slices,
// and for STREAM-PMem those slices map persistent pool memory, so the
// full validation pass and the persistence machinery are exercised. Time
// is modelled: the analytic engine in internal/perf supplies the
// sustained rate for each (cores, node, kernel, mode) combination and
// the runner derives STREAM's best/avg/min/max statistics from it with a
// deterministic per-iteration spread.
package stream

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"cxlpmem/internal/perf"
	"cxlpmem/internal/units"
)

// Op is one STREAM kernel.
type Op int

const (
	// Copy: c[i] = a[i].
	Copy Op = iota
	// Scale: b[i] = scalar*c[i].
	Scale
	// Add: c[i] = a[i] + b[i].
	Add
	// Triad: a[i] = b[i] + scalar*c[i].
	Triad
)

// Ops lists the kernels in STREAM's execution order.
var Ops = []Op{Copy, Scale, Add, Triad}

func (o Op) String() string {
	switch o {
	case Copy:
		return "Copy"
	case Scale:
		return "Scale"
	case Add:
		return "Add"
	case Triad:
		return "Triad"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// BytesPerElement is the traffic STREAM accounts per element: two
// words for Copy/Scale, three for Add/Triad.
func (o Op) BytesPerElement() int {
	switch o {
	case Copy, Scale:
		return 16
	case Add, Triad:
		return 24
	default:
		return 0
	}
}

// Mix maps the kernel onto the performance engine's traffic model:
// Copy and Scale are one read + one write per element, Add and Triad
// two reads + one write. The small factors reflect the usual STREAM
// pattern of Add/Triad reporting slightly higher rates than Copy/Scale
// (write-combining amortises better over the three-operand kernels).
func (o Op) Mix() perf.Mix {
	switch o {
	case Copy:
		return perf.Mix{ReadFrac: 0.5, Factor: 1.00}
	case Scale:
		return perf.Mix{ReadFrac: 0.5, Factor: 0.99}
	case Add:
		return perf.Mix{ReadFrac: 2.0 / 3.0, Factor: 1.02}
	case Triad:
		return perf.Mix{ReadFrac: 2.0 / 3.0, Factor: 1.03}
	default:
		return perf.Mix{ReadFrac: 0.5}
	}
}

// DefaultScalar is STREAM's scalar constant.
const DefaultScalar = 3.0

// DefaultN is the paper's array length: "STREAM executions with 100M
// array elements" (§3.2).
const DefaultN = 100_000_000

// Arrays is the triple STREAM operates on. Implementations are the
// volatile static arrays of Listing 1 and the pmemobj-backed arrays of
// Listing 2.
type Arrays interface {
	A() []float64
	B() []float64
	C() []float64
	// Persist flushes the arrays to their durability domain; a no-op
	// for volatile arrays.
	Persist() error
}

// VolatileArrays is the original STREAM allocation (Listing 1's static
// double arrays).
type VolatileArrays struct {
	a, b, c []float64
}

// NewVolatileArrays allocates the triple.
func NewVolatileArrays(n int) (*VolatileArrays, error) {
	if n <= 0 {
		return nil, fmt.Errorf("stream: array length %d must be positive", n)
	}
	return &VolatileArrays{
		a: make([]float64, n),
		b: make([]float64, n),
		c: make([]float64, n),
	}, nil
}

// A returns the first array.
func (v *VolatileArrays) A() []float64 { return v.a }

// B returns the second array.
func (v *VolatileArrays) B() []float64 { return v.b }

// C returns the third array.
func (v *VolatileArrays) C() []float64 { return v.c }

// Persist is a no-op: DRAM arrays have no durability domain.
func (v *VolatileArrays) Persist() error { return nil }

// Init fills the arrays with STREAM's canonical initial values
// (a=1, b=2, c=0, then a *= 2 as the original main() does before the
// timed loop).
func Init(arr Arrays) {
	a, b, c := arr.A(), arr.B(), arr.C()
	for i := range a {
		a[i] = 1.0
		b[i] = 2.0
		c[i] = 0.0
	}
	for i := range a {
		a[i] = 2.0 * a[i]
	}
}

// workerCount bounds real parallelism for the data pass.
func workerCount(requested int) int {
	max := runtime.GOMAXPROCS(0)
	if requested <= 0 || requested > max {
		return max
	}
	return requested
}

// parallelFor splits [0, n) into contiguous chunks, one per worker —
// OpenMP static scheduling, the paradigm STREAM uses (§3.1).
func parallelFor(n, workers int, body func(lo, hi int)) {
	if workers <= 1 || n < 1024 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Execute runs one kernel over the arrays with the given scalar,
// really moving the data.
func Execute(op Op, arr Arrays, scalar float64, workers int) error {
	a, b, c := arr.A(), arr.B(), arr.C()
	n := len(a)
	if len(b) != n || len(c) != n {
		return fmt.Errorf("stream: array lengths differ: %d/%d/%d", len(a), len(b), len(c))
	}
	w := workerCount(workers)
	switch op {
	case Copy:
		parallelFor(n, w, func(lo, hi int) {
			copy(c[lo:hi], a[lo:hi])
		})
	case Scale:
		parallelFor(n, w, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				b[i] = scalar * c[i]
			}
		})
	case Add:
		parallelFor(n, w, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				c[i] = a[i] + b[i]
			}
		})
	case Triad:
		parallelFor(n, w, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				a[i] = b[i] + scalar*c[i]
			}
		})
	default:
		return fmt.Errorf("stream: unknown op %d", op)
	}
	return nil
}

// validate reproduces STREAM's checkSTREAMresults: it replays the
// arithmetic scalar-wise for ntimes iterations and compares against the
// arrays within the double-precision epsilon.
func validate(arr Arrays, ntimes int, scalar float64) error {
	aj, bj, cj := 1.0, 2.0, 0.0
	aj = 2.0 * aj
	for k := 0; k < ntimes; k++ {
		cj = aj
		bj = scalar * cj
		cj = aj + bj
		aj = bj + scalar*cj
	}
	const epsilon = 1e-13
	a, b, c := arr.A(), arr.B(), arr.C()
	var aErr, bErr, cErr float64
	for i := range a {
		aErr += math.Abs(a[i] - aj)
		bErr += math.Abs(b[i] - bj)
		cErr += math.Abs(c[i] - cj)
	}
	n := float64(len(a))
	aErr, bErr, cErr = aErr/n, bErr/n, cErr/n
	if math.Abs(aErr/aj) > epsilon {
		return fmt.Errorf("stream: validation failed on a[]: avg error %g (expected %g)", aErr, aj)
	}
	if math.Abs(bErr/bj) > epsilon {
		return fmt.Errorf("stream: validation failed on b[]: avg error %g (expected %g)", bErr, bj)
	}
	if math.Abs(cErr/cj) > epsilon {
		return fmt.Errorf("stream: validation failed on c[]: avg error %g (expected %g)", cErr, cj)
	}
	return nil
}

// Result is one kernel's report line, mirroring STREAM's output
// ("Function  Best Rate MB/s  Avg time  Min time  Max time").
type Result struct {
	Op       Op
	BestRate units.Bandwidth
	AvgTime  time.Duration
	MinTime  time.Duration
	MaxTime  time.Duration
	// Bytes moved per iteration.
	Bytes units.Size
}

func (r Result) String() string {
	return fmt.Sprintf("%-6s %12.1f %11.6f %11.6f %11.6f",
		r.Op, r.BestRate.MBps(), r.AvgTime.Seconds(), r.MinTime.Seconds(), r.MaxTime.Seconds())
}

// timesFromRate derives ntimes iteration durations from a modelled
// sustained rate with a deterministic spread: the best iteration runs
// at the modelled rate, the others a few permille slower (page-table
// warmth, scheduling), seeded for reproducibility.
func timesFromRate(bytes units.Size, rate units.Bandwidth, ntimes int, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, ntimes)
	base := units.TimeFor(bytes, rate)
	for i := range out {
		slow := 1.0 + rng.Float64()*0.015
		if i == ntimes/2 {
			slow = 1.0 // the best iteration
		}
		out[i] = time.Duration(float64(base) * slow)
	}
	return out
}

// summarize folds iteration times into a Result.
func summarize(op Op, bytes units.Size, times []time.Duration) Result {
	min, max := times[0], times[0]
	var sum time.Duration
	for _, t := range times {
		if t < min {
			min = t
		}
		if t > max {
			max = t
		}
		sum += t
	}
	return Result{
		Op:       op,
		BestRate: units.RateOf(bytes, min),
		AvgTime:  sum / time.Duration(len(times)),
		MinTime:  min,
		MaxTime:  max,
		Bytes:    bytes,
	}
}
