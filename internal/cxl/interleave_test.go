package cxl

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testInterleaveSet builds a ways-wide striped path over fresh Type-3
// devices (16 MiB media each) and returns the set plus its endpoints.
func testInterleaveSet(t *testing.T, ways int, granule uint64) (*InterleaveSet, []*Type3Device) {
	t.Helper()
	ports := make([]*RootPort, ways)
	devs := make([]*Type3Device, ways)
	for i := range ports {
		dev, err := NewType3(fmt.Sprintf("stripe-dev%d", i), 0x8086, 0x0D93,
			testMedia(t, fmt.Sprintf("stripe-ddr%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = dev
		ports[i] = trainedPort(t, dev)
	}
	s, err := NewInterleaveSet("ils0", 0x10_0000_0000, granule, ports...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, devs
}

// assertNoLineFallbacks enforces the tentpole invariant: striped traffic
// over interleaved windows must never degrade to the per-line path.
func assertNoLineFallbacks(t *testing.T, devs []*Type3Device) {
	t.Helper()
	for i, d := range devs {
		if n := d.Stats().LineFallbacks.Load(); n != 0 {
			t.Errorf("device %d took %d burst→line fallbacks, want 0", i, n)
		}
	}
}

func TestInterleaveRoundTrip(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8} {
		for _, granule := range []uint64{256, 1024, 4096, 8192} {
			t.Run(fmt.Sprintf("ways=%d/granule=%d", ways, granule), func(t *testing.T) {
				s, devs := testInterleaveSet(t, ways, granule)
				// Spans chosen to cross granule and chunk boundaries at
				// awkward offsets.
				for _, n := range []int{LineSize, 3 * LineSize, int(granule), int(granule) + LineSize, 3*int(granule) + 5*LineSize, 64 << 10} {
					in := make([]byte, n)
					for i := range in {
						in[i] = byte(i*31 + n)
					}
					hpa := s.Base() + 2*uint64(LineSize)
					if err := s.WriteBurst(hpa, in); err != nil {
						t.Fatalf("WriteBurst(%d): %v", n, err)
					}
					out := make([]byte, n)
					if err := s.ReadBurst(hpa, out); err != nil {
						t.Fatalf("ReadBurst(%d): %v", n, err)
					}
					if !bytes.Equal(in, out) {
						for i := range in {
							if in[i] != out[i] {
								t.Fatalf("n=%d: first mismatch at byte %d (got %#x want %#x)", n, i, out[i], in[i])
							}
						}
					}
				}
				assertNoLineFallbacks(t, devs)
			})
		}
	}
}

// TestInterleaveSpreadsTraffic checks the point of the exercise: every
// leg carries its share of a large transfer, as bursts, not lines, in
// one transaction per 4 KiB of the leg's owned lines.
func TestInterleaveSpreadsTraffic(t *testing.T) {
	const ways = 4
	s, devs := testInterleaveSet(t, ways, 256)
	n := 1 << 20
	buf := make([]byte, n)
	if err := s.WriteBurst(s.Base(), buf); err != nil {
		t.Fatal(err)
	}
	for i, d := range devs {
		lines := d.Stats().BurstLines.Load()
		if want := int64(n / ways / LineSize); lines != want {
			t.Errorf("device %d moved %d burst lines, want %d", i, lines, want)
		}
		// A 4 KiB-chunked leg never issues per-line transactions.
		if w := d.Stats().Writes.Load(); w != 0 {
			t.Errorf("device %d saw %d per-line writes on the striped path", i, w)
		}
		if got, want := s.Ports()[i].Stats().Issued, int64(n/ways/maxBurstBytes); got != want {
			t.Errorf("leg %d issued %d transactions, want %d", i, got, want)
		}
	}
	assertNoLineFallbacks(t, devs)
}

// TestInterleaveAgainstLinearReference drives randomized unaligned
// ReadAt/WriteAt spans and checks every byte against a reference image
// — the striped analogue of TestReadWriteAtEdgeCases. The spans start
// bursts mid-granule, and granules wider than one burst split across
// several.
func TestInterleaveAgainstLinearReference(t *testing.T) {
	for _, granule := range []uint64{256, 1024, 4096, 8192} {
		t.Run(fmt.Sprintf("granule=%d", granule), func(t *testing.T) {
			s, devs := testInterleaveSet(t, 4, granule)
			const arena = 64 << 10
			ref := make([]byte, arena)
			rng := rand.New(rand.NewSource(7))
			base := int64(s.Base())
			for iter := 0; iter < 150; iter++ {
				off := rng.Intn(arena - 1)
				n := 1 + rng.Intn(arena-off-1)
				if n > 20*int(granule) {
					n = 1 + rng.Intn(20*int(granule))
				}
				span := make([]byte, n)
				rng.Read(span)
				copy(ref[off:off+n], span)
				if err := s.WriteAt(span, base+int64(off)); err != nil {
					t.Fatalf("WriteAt(%d, %d): %v", off, n, err)
				}
			}
			got := make([]byte, arena)
			if err := s.ReadAt(got, base); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ref, got) {
				for i := range ref {
					if ref[i] != got[i] {
						t.Fatalf("first mismatch at byte %d: got %#x want %#x", i, got[i], ref[i])
					}
				}
			}
			// Line-granular spot checks through the routed line path.
			for iter := 0; iter < 50; iter++ {
				off := rng.Intn(arena-LineSize) &^ (LineSize - 1)
				var line [LineSize]byte
				if err := s.ReadLine(uint64(base)+uint64(off), &line); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(line[:], ref[off:off+LineSize]) {
					t.Fatalf("ReadLine(%d) disagrees with striped writes", off)
				}
			}
			assertNoLineFallbacks(t, devs)
		})
	}
}

func TestInterleaveWindowBounds(t *testing.T) {
	s, _ := testInterleaveSet(t, 2, 256)
	buf := make([]byte, 2*LineSize)
	if err := s.WriteBurst(s.Base()+3, buf); err == nil {
		t.Error("unaligned striped burst accepted")
	}
	if err := s.ReadBurst(s.Base(), buf[:LineSize+1]); err == nil {
		t.Error("non-line-multiple striped burst accepted")
	}
	if err := s.WriteBurst(s.Base()+s.Size()-uint64(LineSize), buf); err == nil {
		t.Error("striped burst overrunning the window accepted")
	}
	if err := s.WriteBurst(s.Base()-uint64(LineSize), buf); err == nil {
		t.Error("striped burst below the window accepted")
	}
}

func TestInterleaveGeometryValidation(t *testing.T) {
	mk := func(n int) []*RootPort {
		ports := make([]*RootPort, n)
		for i := range ports {
			dev, err := NewType3(fmt.Sprintf("g-dev%d", i), 0x8086, 0x0D93,
				testMedia(t, fmt.Sprintf("g-ddr%d", i)))
			if err != nil {
				t.Fatal(err)
			}
			ports[i] = trainedPort(t, dev)
		}
		return ports
	}
	if _, err := NewInterleaveSet("bad", 0, 0); err == nil {
		t.Error("zero-way set accepted")
	}
	if _, err := NewInterleaveSet("bad", 0, 96, mk(2)...); err == nil {
		t.Error("non-line-multiple granule accepted")
	}
	if _, err := NewInterleaveSet("bad", 0x140, 256, mk(2)...); err == nil {
		t.Error("granule-unaligned base accepted")
	}
	down := NewRootPort("down", nil)
	if _, err := NewInterleaveSet("bad", 0, 256, down); err == nil {
		t.Error("untrained leg accepted")
	}
	accel := trainedPort(t, NewType1("accel", 0x8086, 0x0001))
	if _, err := NewInterleaveSet("bad", 0, 256, append(mk(1), accel)...); err == nil {
		t.Error("leg with no HDM accepted")
	}
	// Mixed-capacity members: the share is the smallest HDM.
	small, err := NewType3("small", 0x8086, 0x0D93, testMedia(t, "small-ddr"))
	if err != nil {
		t.Fatal(err)
	}
	ports := append(mk(1), trainedPort(t, small))
	s, err := NewInterleaveSet("mixed", 0, 256, ports...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cap := uint64(16 << 20) // testMedia capacity
	if s.Size() != 2*cap {
		t.Errorf("mixed set size = %d, want %d", s.Size(), 2*cap)
	}
}

// TestInterleaveLegFaultIsolation injects transient corruption on one
// leg's link: the striped transfer must succeed via that leg's LRSM
// retry, and the retry accounting must stay on the faulted leg alone.
func TestInterleaveLegFaultIsolation(t *testing.T) {
	s, devs := testInterleaveSet(t, 4, 256)
	const faulted = 2
	var mu sync.Mutex
	n := 0
	s.Ports()[faulted].SetFault(func(f Flit) Flit {
		mu.Lock()
		defer mu.Unlock()
		n++
		if n%5 == 3 { // transient, recoverable
			return f.Corrupt(13)
		}
		return f
	})
	in := make([]byte, 32<<10)
	for i := range in {
		in[i] = byte(i * 17)
	}
	if err := s.WriteBurst(s.Base(), in); err != nil {
		t.Fatalf("striped write with transient leg corruption: %v", err)
	}
	out := make([]byte, len(in))
	if err := s.ReadBurst(s.Base(), out); err != nil {
		t.Fatalf("striped read with transient leg corruption: %v", err)
	}
	if !bytes.Equal(in, out) {
		t.Error("data corrupted despite per-leg retry")
	}
	for i, rp := range s.Ports() {
		r := rp.Stats().Retries
		if i == faulted && r == 0 {
			t.Error("faulted leg recorded no retries")
		}
		if i != faulted && r != 0 {
			t.Errorf("healthy leg %d recorded %d retries", i, r)
		}
	}
	assertNoLineFallbacks(t, devs)
}

// TestInterleavePersistentLegFault: a non-lead leg whose link corrupts
// every data flit fails the striped write with that leg's *PortError,
// at one P and at two. Every other leg still writes its granules, and
// the failed leg keeps its old bytes, since a failed burst has no
// partial effects.
func TestInterleavePersistentLegFault(t *testing.T) {
	const ways, g, faulted = 4, 256, 2
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			s, _ := testInterleaveSet(t, ways, g)
			old := make([]byte, 4<<10)
			for i := range old {
				old[i] = byte(i*5 + 1)
			}
			if err := s.WriteBurst(s.Base(), old); err != nil {
				t.Fatal(err)
			}
			bad := s.Ports()[faulted]
			bad.SetFault(func(f Flit) Flit {
				if f.raw[0] == flitKindData {
					return f.Corrupt(50)
				}
				return f
			})
			in := make([]byte, len(old))
			for i := range in {
				in[i] = byte(i*11 + 3)
			}
			err := s.WriteBurst(s.Base(), in)
			pe, ok := err.(*PortError)
			if !ok {
				t.Fatalf("WriteBurst = %v, want the faulted leg's *PortError", err)
			}
			if s.Route(pe.Addr) != bad {
				t.Errorf("error at %#x is not on faulted leg %d: %v", pe.Addr, faulted, err)
			}
			check := func(leg int, want []byte) {
				t.Helper()
				for k := uint64(leg) * g; k < uint64(len(in)); k += ways * g {
					for l := k; l < k+g; l += uint64(LineSize) {
						var got [LineSize]byte
						if err := s.ReadLine(s.Base()+l, &got); err != nil {
							t.Fatalf("leg %d: ReadLine at offset %d: %v", leg, l, err)
						}
						if !bytes.Equal(got[:], want[l:l+uint64(LineSize)]) {
							t.Fatalf("leg %d: line at offset %d holds the wrong bytes", leg, l)
						}
					}
				}
			}
			for leg := 0; leg < ways; leg++ {
				if leg != faulted {
					check(leg, in)
				}
			}
			bad.SetFault(nil)
			check(faulted, old)
		})
	}
}

// TestInterleaveConcurrentStripes is the race-mode suite: many
// goroutines drive striped reads and writes over disjoint regions while
// one leg suffers transient corruption. Every region must read back its
// own writes exactly (per-line linearizability on disjoint data),
// retries must stay on the faulted leg, and no burst may fall back to
// the line path.
func TestInterleaveConcurrentStripes(t *testing.T) {
	s, devs := testInterleaveSet(t, 4, 256)
	const (
		workers     = 8
		regionBytes = 64 << 10
		rounds      = 6
	)
	const faulted = 1
	var mu sync.Mutex
	n := 0
	s.Ports()[faulted].SetFault(func(f Flit) Flit {
		mu.Lock()
		defer mu.Unlock()
		n++
		if n%97 == 0 {
			return f.Corrupt(7)
		}
		return f
	})

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := s.Base() + uint64(w)*regionBytes
			in := make([]byte, regionBytes)
			out := make([]byte, regionBytes)
			for r := 0; r < rounds; r++ {
				for i := range in {
					in[i] = byte(i + w*31 + r*7)
				}
				if err := s.WriteBurst(base, in); err != nil {
					errs[w] = fmt.Errorf("worker %d round %d write: %w", w, r, err)
					return
				}
				if err := s.ReadBurst(base, out); err != nil {
					errs[w] = fmt.Errorf("worker %d round %d read: %w", w, r, err)
					return
				}
				if !bytes.Equal(in, out) {
					errs[w] = fmt.Errorf("worker %d round %d: readback mismatch", w, r)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, rp := range s.Ports() {
		if i != faulted && rp.Stats().Retries != 0 {
			t.Errorf("healthy leg %d recorded %d retries", i, rp.Stats().Retries)
		}
	}
	assertNoLineFallbacks(t, devs)
}

// countLegJobs interposes on s's leg-worker channels: each job do
// hands to a worker is counted, then run as the worker would run it.
// The one-slot buffers take every hand-off of a lone caller (do waits
// for its jobs, so the slot is empty by the next call), so the count is
// exact: no job runs on the caller because its worker had not yet
// parked again.
func countLegJobs(s *InterleaveSet) *atomic.Int64 {
	var n atomic.Int64
	for i, old := range s.workers {
		ch := make(chan *stripeJob, 1)
		s.workers[i] = ch
		close(old)
		go func() {
			for j := range ch {
				n.Add(1)
				runStripeJob(j)
			}
		}()
	}
	return &n
}

// TestInterleaveFanOutTouchedLegsOnly pins the fan-out rule: a striped
// span touches only the legs owning one of its granules and lands every
// byte on its owning leg. With two Ps the caller runs one touched leg
// and wakes the workers of the others; with one P it runs them all.
func TestInterleaveFanOutTouchedLegsOnly(t *testing.T) {
	const ways, g, line = 4, 256, uint64(LineSize)
	cases := []struct {
		name     string
		off, n   uint64 // window offset and length
		wantJobs int64  // hand-offs to leg workers above one P
	}{
		{"one line", 0, line, 0},
		{"inside one granule of leg 2", 2*g + line, 2 * line, 0},
		{"two granules from leg 1", g, 2 * g, 1},
		{"two granules, unaligned", g - line, 2 * line, 1},
		{"three granules from leg 0", 0, 3 * g, 2},
		{"wrap from leg 3 into leg 0", 3 * g, 2 * g, 1},
		{"wrap from leg 2 into leg 0", 2*g + line, 2 * g, 2},
		{"wrap, second stripe", 7*g + 2*line, 2 * g, 2},
		{"all legs, aligned", 0, ways * g, ways - 1},
		{"all legs from leg 3", 3 * g, ways * g, ways - 1},
		{"many stripes", g + line, 16 << 10, ways - 1},
	}
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			s, devs := testInterleaveSet(t, ways, g)
			jobs := countLegJobs(s)
			for i, tc := range cases {
				want := tc.wantJobs
				if procs == 1 {
					want = 0
				}
				hpa := s.Base() + tc.off
				in := make([]byte, tc.n)
				for k := range in {
					in[k] = byte(k*7 + i + 1)
				}
				before := jobs.Load()
				if err := s.WriteBurst(hpa, in); err != nil {
					t.Fatalf("%s: WriteBurst: %v", tc.name, err)
				}
				if got := jobs.Load() - before; got != want {
					t.Errorf("%s: WriteBurst handed %d jobs to leg workers, want %d", tc.name, got, want)
				}
				out := make([]byte, tc.n)
				before = jobs.Load()
				if err := s.ReadBurst(hpa, out); err != nil {
					t.Fatalf("%s: ReadBurst: %v", tc.name, err)
				}
				if got := jobs.Load() - before; got != want {
					t.Errorf("%s: ReadBurst handed %d jobs to leg workers, want %d", tc.name, got, want)
				}
				if !bytes.Equal(in, out) {
					t.Errorf("%s: striped readback differs from what was written", tc.name)
				}
				// The routed line path reads each line from its owning
				// leg, so a piece moved by the wrong leg shows here.
				for k := uint64(0); k < tc.n; k += line {
					var l [LineSize]byte
					if err := s.ReadLine(hpa+k, &l); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(l[:], in[k:k+line]) {
						t.Fatalf("%s: line at offset %d landed off its owning leg", tc.name, tc.off+k)
					}
				}
			}
			assertNoLineFallbacks(t, devs)
		})
	}
}

// TestInterleaveZeroAllocSteadyState guards the striped path's
// allocation discipline: leg fan-out (pooled call frames + persistent
// workers above one P, the caller alone at one P) and the legs' bursts
// (pooled frames in the port) must not allocate per operation,
// at a granule below one burst and at one burst, and neither may the
// line and sub-line accesses routed to one leg.
func TestInterleaveZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	for _, granule := range []uint64{256, 4096} {
		t.Run(fmt.Sprintf("granule=%d", granule), func(t *testing.T) {
			for _, procs := range []int{1, 2} {
				t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					zeroAllocCases(t, granule, procs)
				})
			}
		})
	}
}

// zeroAllocCases runs TestInterleaveZeroAllocSteadyState's cases on a
// fresh 4-way set at the given granule, with GOMAXPROCS already set to
// procs.
func zeroAllocCases(t *testing.T, granule uint64, procs int) {
	s, _ := testInterleaveSet(t, 4, granule)
	buf := make([]byte, 32<<10)
	if err := s.WriteBurst(s.Base(), buf); err != nil { // warm pools + pages
		t.Fatal(err)
	}
	two := buf[:2*granule]
	// The small accesses are the header writes a checkpoint step
	// issues: whole lines, 8-byte fields, and unaligned runs that split
	// into a partial head, a striped interior and a partial tail.
	var line [LineSize]byte
	word, run := buf[:8], buf[:300]
	odd := int64(s.Base()) + 40
	cases := map[string]func(){
		"WriteBurst":             func() { _ = s.WriteBurst(s.Base(), buf) },
		"ReadBurst":              func() { _ = s.ReadBurst(s.Base(), buf) },
		"WriteBurst/one-line":    func() { _ = s.WriteBurst(s.Base(), buf[:LineSize]) },
		"ReadBurst/one-line":     func() { _ = s.ReadBurst(s.Base(), buf[:LineSize]) },
		"WriteBurst/2-granules":  func() { _ = s.WriteBurst(s.Base()+granule, two) },
		"ReadBurst/2-granules":   func() { _ = s.ReadBurst(s.Base()+granule, two) },
		"WriteLine":              func() { _ = s.WriteLine(s.Base()+granule, &line) },
		"ReadLine":               func() { _ = s.ReadLine(s.Base()+granule, &line) },
		"WriteAt/8B":             func() { _ = s.WriteAt(word, int64(s.Base()+granule)+8) },
		"ReadAt/8B":              func() { _ = s.ReadAt(word, int64(s.Base()+granule)+8) },
		"WriteAt/300B-unaligned": func() { _ = s.WriteAt(run, odd) },
		"ReadAt/300B-unaligned":  func() { _ = s.ReadAt(run, odd) },
	}
	// At one P, AllocsPerRun measures the caller-only path. Above one
	// P, AllocsPerRun would pin GOMAXPROCS back to 1, so allocsAtProcs
	// measures instead, and the counting workers of countLegJobs confirm
	// that the spread cases hand legs to workers. The guard covers the
	// pooled frames, the hand-off and the leg work a worker does; a leg
	// whose worker is mid-job runs on the caller through the same
	// runStripeJob, so the unbuffered workers' busy case adds nothing.
	measure := testing.AllocsPerRun
	if procs > 1 {
		measure = allocsAtProcs
	}
	spread := map[string]bool{"WriteBurst": true, "ReadBurst": true, "WriteBurst/2-granules": true, "ReadBurst/2-granules": true}
	jobs := countLegJobs(s)
	for name, fn := range cases {
		before := jobs.Load()
		if allocs := measure(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op at GOMAXPROCS %d, want 0", name, allocs, procs)
		}
		handed := jobs.Load() - before
		if procs == 1 && handed != 0 || procs > 1 && spread[name] && handed == 0 {
			t.Errorf("%s: handed %d jobs to leg workers at GOMAXPROCS %d", name, handed, procs)
		}
	}
}

// allocsAtProcs is testing.AllocsPerRun without its GOMAXPROCS 1 pin:
// the heap allocations per call of fn over runs calls after a warm-up,
// rounded down as AllocsPerRun and -benchmem round, measured at the
// caller's GOMAXPROCS.
func allocsAtProcs(runs int, fn func()) float64 {
	fn()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&ms)
	return float64((ms.Mallocs - before) / uint64(runs))
}

// stableGoroutines waits for the goroutine count to stop moving
// (workers of earlier tests, closed via t.Cleanup, may still be
// exiting) and returns it.
func stableGoroutines() int {
	prev := runtime.NumGoroutine()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == prev {
			return n
		}
		prev = n
	}
	return prev
}

// TestInterleaveBusyWorkerRunsOnCaller: a striped call that finds a
// leg's worker mid-job runs that leg itself, after its lead, and starts
// no goroutine. Leg 1's hook holds the first flit each of two calls
// moves on it: the first call's leg holds the worker (or, if the worker
// had not parked yet, the caller), so the second finds the worker
// busy. While both are held, the only goroutines added are the two
// callers.
func TestInterleaveBusyWorkerRunsOnCaller(t *testing.T) {
	const g = 256
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			s, devs := testInterleaveSet(t, 2, g)
			held, release := make(chan struct{}), make(chan struct{})
			var flits atomic.Int32
			s.Ports()[1].SetFault(func(f Flit) Flit {
				if flits.Add(1) <= 2 {
					held <- struct{}{}
					<-release
				}
				return f
			})
			before := stableGoroutines()
			errs := make(chan error, 2)
			for i := uint64(0); i < 2; i++ {
				go func() { errs <- s.WriteBurst(s.Base()+i*2*g, make([]byte, 2*g)) }()
				<-held
			}
			added := runtime.NumGoroutine() - before
			close(release)
			for i := 0; i < 2; i++ {
				if err := <-errs; err != nil {
					t.Error(err)
				}
			}
			if added > 2 {
				t.Errorf("two striped calls held on leg 1 added %d goroutines, want only their 2 callers", added)
			}
			for i, d := range devs {
				if got := d.Stats().WriteBursts.Load(); got != 2 {
					t.Errorf("leg %d wrote %d bursts, want 2", i, got)
				}
			}
		})
	}
}

// TestInterleaveCloseStopsWorkers pins the worker lifecycle: Close
// (idempotent) stops the per-leg workers, so striped topologies torn
// down deterministically leak nothing.
func TestInterleaveCloseStopsWorkers(t *testing.T) {
	before := stableGoroutines()
	s, _ := testInterleaveSet(t, 4, 256)
	if err := s.WriteBurst(s.Base(), make([]byte, 4<<10)); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n < before+3 {
		t.Fatalf("expected 3 leg workers running, goroutines %d -> %d", before, n)
	}
	s.Close()
	s.Close() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	n := runtime.NumGoroutine()
	for n > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > before {
		t.Errorf("leg workers leaked: goroutines %d -> %d after Close", before, n)
	}
}

// TestInterleaveTransfersAfterClose: a set keeps moving data after
// Close at any GOMAXPROCS, running every touched leg on the caller
// instead of on the stopped workers.
func TestInterleaveTransfersAfterClose(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			s, devs := testInterleaveSet(t, 4, 256)
			s.Close()
			in := make([]byte, 4<<10)
			for i := range in {
				in[i] = byte(i*7 + procs)
			}
			if err := s.WriteBurst(s.Base(), in); err != nil {
				t.Fatalf("WriteBurst after Close: %v", err)
			}
			out := make([]byte, len(in))
			if err := s.ReadBurst(s.Base(), out); err != nil {
				t.Fatalf("ReadBurst after Close: %v", err)
			}
			if !bytes.Equal(in, out) {
				t.Error("4 KiB round trip after Close read back different bytes")
			}
			for i, d := range devs {
				if d.Stats().WriteBursts.Load() == 0 {
					t.Errorf("leg %d saw no burst", i)
				}
			}
		})
	}
}

// TestStridedBurstSemantics exercises the endpoint half in isolation: a
// burst addressed into an interleaved window names consecutive
// target-owned lines, crosses granule boundaries without fallback, and
// lands exactly where per-line transactions say it should.
func TestStridedBurstSemantics(t *testing.T) {
	dev := testType3(t)
	// This device owns the even 256 B granules of [0, 1 MiB).
	if err := dev.ProgramDecoder(&HDMDecoder{
		Base: 0, Size: 1 << 20, InterleaveWays: 2, InterleaveGranule: 256, TargetIndex: 0,
	}); err != nil {
		t.Fatal(err)
	}
	rp := trainedPort(t, dev)
	// 12 lines from HPA 0: granule 0 holds lines at HPA 0..192, the
	// next owned granule starts at HPA 512, then 1024.
	in := make([]byte, 12*LineSize)
	for i := range in {
		in[i] = byte(i + 1)
	}
	if err := rp.WriteBurst(0, in); err != nil {
		t.Fatalf("strided burst: %v", err)
	}
	if n := dev.Stats().LineFallbacks.Load(); n != 0 {
		t.Errorf("strided burst took %d line fallbacks, want 0", n)
	}
	// Per-line reads at the strided HPAs must observe the payload in
	// owned-line order.
	for i := 0; i < 12; i++ {
		chunk, within := i/4, i%4 // 4 lines per 256 B granule
		hpa := uint64(chunk)*512 + uint64(within)*uint64(LineSize)
		var line [LineSize]byte
		if err := rp.ReadLine(hpa, &line); err != nil {
			t.Fatalf("ReadLine(%#x): %v", hpa, err)
		}
		if !bytes.Equal(line[:], in[i*LineSize:(i+1)*LineSize]) {
			t.Fatalf("owned line %d (hpa %#x): strided burst landed wrong", i, hpa)
		}
	}
	// Overrunning the target's share must fail whole, not wrap.
	share := uint64(1<<20) / 2
	lastOwned := share - uint64(LineSize) // DPA of the last owned line
	dec := dev.Decoders()[0]
	hpaLast, ok := dec.Encode(lastOwned)
	if !ok {
		t.Fatal("Encode(last owned line) failed")
	}
	if err := rp.WriteBurst(hpaLast, make([]byte, 2*LineSize)); err == nil {
		t.Error("strided burst overrunning the share accepted")
	}
}

// TestLineFallbackCounter pins the satellite: a burst that genuinely
// cannot map to one DPA span (window seam) is still served, but counted.
func TestLineFallbackCounter(t *testing.T) {
	dev := testType3(t)
	if err := dev.ProgramDecoder(&HDMDecoder{Base: 0, Size: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	if err := dev.ProgramDecoder(&HDMDecoder{Base: 1 << 20, Size: 1 << 20, DPABase: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	rp := trainedPort(t, dev)
	in := make([]byte, 8*LineSize)
	start := uint64(1<<20) - 4*uint64(LineSize)
	if err := rp.WriteBurst(start, in); err != nil {
		t.Fatal(err)
	}
	if n := dev.Stats().LineFallbacks.Load(); n != 1 {
		t.Errorf("seam-crossing burst counted %d fallbacks, want 1", n)
	}
	// In-window bursts stay on the fast path.
	if err := rp.WriteBurst(0, in); err != nil {
		t.Fatal(err)
	}
	if n := dev.Stats().LineFallbacks.Load(); n != 1 {
		t.Errorf("contiguous burst incremented the fallback counter (now %d)", n)
	}
}

// TestInterleaveLoneLineIsLineOp checks that an aligned 64-byte
// WriteAt or ReadAt on a striped set is one line transaction on the
// owning leg, as on a RootPort: a MemWr or MemRd there, no burst, and
// nothing on the other legs.
func TestInterleaveLoneLineIsLineOp(t *testing.T) {
	const ways, g, owner = 4, 256, 2
	s, devs := testInterleaveSet(t, ways, g)
	hpa := s.Base() + owner*g + uint64(LineSize)
	type counts struct{ reads, writes, partials, bursts, burstLines int64 }
	snap := func() (c [ways]counts) {
		for i, d := range devs {
			st := d.Stats()
			c[i] = counts{st.Reads.Load(), st.Writes.Load(), st.PartialWrites.Load(),
				st.ReadBursts.Load() + st.WriteBursts.Load(), st.BurstLines.Load()}
		}
		return c
	}
	in := make([]byte, LineSize)
	for i := range in {
		in[i] = byte(i*3 + 1)
	}
	out := make([]byte, LineSize)
	for _, write := range []bool{true, false} {
		before := snap()
		var err error
		if write {
			err = s.WriteAt(in, int64(hpa))
		} else {
			err = s.ReadAt(out, int64(hpa))
		}
		if err != nil {
			t.Fatal(err)
		}
		after := snap()
		for leg := range devs {
			want := before[leg]
			if leg == owner && write {
				want.writes++
			} else if leg == owner {
				want.reads++
			}
			if after[leg] != want {
				t.Errorf("write=%v: leg %d counts %+v, want %+v", write, leg, after[leg], want)
			}
		}
	}
	if !bytes.Equal(in, out) {
		t.Error("lone line read back differs from what was written")
	}
}
