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
// leg carries its share of a large transfer, as bursts, not lines.
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
	}
	assertNoLineFallbacks(t, devs)
}

// TestInterleaveAgainstLinearReference drives randomized unaligned
// ReadAt/WriteAt spans and checks every byte against a reference image
// — the striped analogue of TestReadWriteAtEdgeCases.
func TestInterleaveAgainstLinearReference(t *testing.T) {
	for _, granule := range []uint64{256, 4096} {
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

// TestInterleavePersistentLegFault: a leg whose link corrupts every
// data flit must fail the striped transfer with that leg's port error;
// the other legs' windows remain readable.
func TestInterleavePersistentLegFault(t *testing.T) {
	s, _ := testInterleaveSet(t, 2, 256)
	s.Ports()[1].SetFault(func(f Flit) Flit {
		if f.raw[0] == flitKindData {
			return f.Corrupt(50)
		}
		return f
	})
	err := s.WriteBurst(s.Base(), make([]byte, 4<<10))
	if err == nil {
		t.Fatal("persistent leg corruption not reported")
	}
	if _, ok := err.(*PortError); !ok {
		t.Errorf("err = %T, want *PortError", err)
	}
	s.Ports()[1].SetFault(nil)
	// Leg 0's granules are still individually accessible.
	var line [LineSize]byte
	if err := s.ReadLine(s.Base(), &line); err != nil {
		t.Errorf("healthy leg unreadable after sibling fault: %v", err)
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
// for its jobs, so the slot is empty by the next call), so none
// overflows uncounted onto a transient goroutine.
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
// span wakes only the legs owning one of its granules, runs one of
// them on the caller, and still lands every byte on its owning leg.
func TestInterleaveFanOutTouchedLegsOnly(t *testing.T) {
	const ways, g, line = 4, 256, uint64(LineSize)
	s, devs := testInterleaveSet(t, ways, g)
	jobs := countLegJobs(s)
	cases := []struct {
		name     string
		off, n   uint64 // window offset and length
		wantJobs int64
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
	for i, tc := range cases {
		hpa := s.Base() + tc.off
		in := make([]byte, tc.n)
		for k := range in {
			in[k] = byte(k*7 + i + 1)
		}
		before := jobs.Load()
		if err := s.WriteBurst(hpa, in); err != nil {
			t.Fatalf("%s: WriteBurst: %v", tc.name, err)
		}
		if got := jobs.Load() - before; got != tc.wantJobs {
			t.Errorf("%s: WriteBurst handed %d jobs to leg workers, want %d", tc.name, got, tc.wantJobs)
		}
		out := make([]byte, tc.n)
		before = jobs.Load()
		if err := s.ReadBurst(hpa, out); err != nil {
			t.Fatalf("%s: ReadBurst: %v", tc.name, err)
		}
		if got := jobs.Load() - before; got != tc.wantJobs {
			t.Errorf("%s: ReadBurst handed %d jobs to leg workers, want %d", tc.name, got, tc.wantJobs)
		}
		if !bytes.Equal(in, out) {
			t.Errorf("%s: striped readback differs from what was written", tc.name)
		}
		// The routed line path reads each line from its owning leg, so
		// a piece moved by the wrong leg shows here.
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
}

// TestInterleaveZeroAllocSteadyState guards the striped path's
// allocation discipline: leg fan-out (pooled call frames + persistent
// workers) and gather/scatter staging (pooled burst buffers) must not
// allocate per operation, for both the narrow-granule gather path and
// the wide-granule zero-copy path, and neither may the line and
// sub-line accesses routed to one leg.
func TestInterleaveZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	for _, granule := range []uint64{256, 4096} {
		t.Run(fmt.Sprintf("granule=%d", granule), func(t *testing.T) {
			s, _ := testInterleaveSet(t, 4, granule)
			buf := make([]byte, 32<<10)
			if err := s.WriteBurst(s.Base(), buf); err != nil { // warm pools + pages
				t.Fatal(err)
			}
			two := buf[:2*granule]
			// The small accesses are the header writes a checkpoint
			// step issues: whole lines, 8-byte fields, and unaligned
			// runs that split into a partial head, a striped interior
			// and a partial tail.
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
			for name, fn := range cases {
				if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
					t.Errorf("%s: %v allocs/op, want 0", name, allocs)
				}
			}
		})
	}
}

// TestInterleaveCloseStopsWorkers pins the worker lifecycle: Close
// (idempotent) stops the per-leg workers, so striped topologies torn
// down deterministically leak nothing.
func TestInterleaveCloseStopsWorkers(t *testing.T) {
	// Wait for the goroutine count to stop moving (workers of earlier
	// tests, closed via t.Cleanup, may still be exiting).
	stable := func() int {
		prev := runtime.NumGoroutine()
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
			if n := runtime.NumGoroutine(); n == prev {
				return n
			} else {
				prev = n
			}
		}
		return prev
	}
	before := stable()
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
