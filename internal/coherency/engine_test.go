package coherency_test

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cxlpmem/internal/coherency"
	"cxlpmem/internal/fpga"
	"cxlpmem/internal/topology"
	"cxlpmem/internal/units"
)

// coherentSetup builds an N-host coherent shared-HDM fabric over one
// small prototype card — the single fixture both the Peterson suite
// and the back-invalidate engine suite build on.
func coherentSetup(t testing.TB, hosts, cacheLines int) *topology.SharedHDM {
	t.Helper()
	s, err := topology.SetupShared(topology.SharedOptions{
		Hosts:       hosts,
		SegmentSize: 64 * units.KiB,
		Coherent:    true,
		CacheLines:  cacheLines,
		FPGA:        fpga.Options{ChannelCapacity: 4 * units.MiB},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCoherentVisibilityNoFlush is the headline upgrade over the
// Peterson model: a write on one host is visible to a reader on
// another host with no Flush, no Invalidate and no lock — the
// directory recalls the dirty line over the back-invalidate channel.
func TestCoherentVisibilityNoFlush(t *testing.T) {
	s := coherentSetup(t, 2, 64)
	h0, h1 := s.Hosts[0].Cache, s.Hosts[1].Cache

	if err := h0.Write([]byte("shared state"), 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 12)
	if err := h1.Read(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "shared state" {
		t.Fatalf("remote read = %q, want %q (write invisible without flush)", got, "shared state")
	}
	if s.Directory.Stats().Writebacks.Load() == 0 {
		t.Error("remote visibility came without a snoop write-back — the data bypassed the protocol")
	}

	// And the reverse direction: h1 overwrites, h0 observes.
	if err := h1.Write([]byte("reply!"), 0); err != nil {
		t.Fatal(err)
	}
	got = got[:6]
	if err := h0.Read(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "reply!" {
		t.Fatalf("read after remote overwrite = %q, want %q", got, "reply!")
	}
}

// TestCoherentStaleCopyInvalidated pins the MESI core: a host that
// cached a line BEFORE a remote write must not keep serving the stale
// copy afterwards.
func TestCoherentStaleCopyInvalidated(t *testing.T) {
	s := coherentSetup(t, 3, 64)
	h0, h1, h2 := s.Hosts[0].Cache, s.Hosts[1].Cache, s.Hosts[2].Cache

	if err := h0.Store(0, 1); err != nil {
		t.Fatal(err)
	}
	// h1 and h2 cache the line Shared.
	for i, h := range []*coherency.CoherentCache{h1, h2} {
		if v, err := h.Load(0); err != nil || v != 1 {
			t.Fatalf("host %d initial load = %d, %v", i+1, v, err)
		}
	}
	inv0 := s.Directory.Stats().Invalidations.Load()
	// h0's store must invalidate BOTH shared copies before completing.
	if err := h0.Store(0, 2); err != nil {
		t.Fatal(err)
	}
	if got := s.Directory.Stats().Invalidations.Load() - inv0; got < 2 {
		t.Errorf("store over 2 sharers invalidated %d copies, want >= 2", got)
	}
	for i, h := range []*coherency.CoherentCache{h1, h2} {
		if v, err := h.Load(0); err != nil || v != 2 {
			t.Fatalf("host %d load after remote store = %d, %v; want 2", i+1, v, err)
		}
	}
}

// TestCoherentNoLostUpdates drives every host's FetchAdd at one shared
// counter from concurrent goroutines: MESI ownership must make the
// read-modify-write atomic with no application lock — the property the
// Peterson suite needed a full mutual-exclusion protocol for.
func TestCoherentNoLostUpdates(t *testing.T) {
	const perHost = 200
	for _, hosts := range []int{2, 4} {
		s := coherentSetup(t, hosts, 64)
		var wg sync.WaitGroup
		errs := make([]error, hosts)
		for i := 0; i < hosts; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for j := 0; j < perHost; j++ {
					if _, err := s.Hosts[i].Cache.FetchAdd(0, 1); err != nil {
						errs[i] = err
						return
					}
				}
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		got, err := s.Hosts[0].Cache.Load(0)
		if err != nil {
			t.Fatal(err)
		}
		if got != uint64(hosts*perHost) {
			t.Errorf("%d hosts: counter = %d, want %d (lost updates)", hosts, got, hosts*perHost)
		}
	}
}

// TestCoherentEvictionPressure forces the clock hand around a tiny
// cache: every line a host writes is evicted and written back long
// before a remote reader arrives, and a reader with the same tiny
// cache must still assemble the full pattern.
func TestCoherentEvictionPressure(t *testing.T) {
	s := coherentSetup(t, 2, 4) // 4 frames vs a 64-line working set
	h0, h1 := s.Hosts[0].Cache, s.Hosts[1].Cache

	pattern := make([]byte, 64*64)
	for i := range pattern {
		pattern[i] = byte(i*7 + 3)
	}
	if err := h0.Write(pattern, 0); err != nil {
		t.Fatal(err)
	}
	if h0.Stats().Evictions.Load() == 0 || h0.Stats().Writebacks.Load() == 0 {
		t.Error("a 64-line write through 4 frames must evict and write back")
	}
	got := make([]byte, len(pattern))
	if err := h1.Read(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern) {
		t.Error("pattern corrupted crossing the coherent caches under eviction pressure")
	}
}

// TestCoherentUnalignedSpans covers the partial-line head/tail paths
// of Read/Write across hosts.
func TestCoherentUnalignedSpans(t *testing.T) {
	s := coherentSetup(t, 3, 64)
	h0, h2 := s.Hosts[0].Cache, s.Hosts[2].Cache

	payload := make([]byte, 333)
	for i := range payload {
		payload[i] = byte(i ^ 0x5A)
	}
	if err := h0.Write(payload, 41); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if err := h2.Read(got, 41); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("unaligned span corrupted crossing hosts")
	}
	// Bytes around the span are untouched (zero media).
	var edge [1]byte
	if err := h2.Read(edge[:], 40); err != nil {
		t.Fatal(err)
	}
	if edge[0] != 0 {
		t.Errorf("byte before span = %#x, want 0", edge[0])
	}
}

// TestCoherentValidation covers constructor and access validation.
func TestCoherentValidation(t *testing.T) {
	if _, err := topology.SetupShared(topology.SharedOptions{Hosts: 1, Coherent: true}); err == nil {
		t.Error("1-host setup accepted")
	}
	if _, err := topology.SetupShared(topology.SharedOptions{Hosts: 3}); err == nil {
		t.Error("3-host Peterson setup accepted (two-host algorithm)")
	}
	if _, err := topology.SetupShared(topology.SharedOptions{Hosts: 2, SegmentSize: 100}); err == nil {
		t.Error("unaligned segment size accepted")
	}
	s := coherentSetup(t, 2, 8)
	h := s.Hosts[0].Cache
	if err := h.Write(make([]byte, 8), s.Segment.Size); err == nil {
		t.Error("out-of-segment write accepted")
	}
	if err := h.Read(make([]byte, 8), -1); err == nil {
		t.Error("negative read accepted")
	}
	if _, err := h.Load(3); err == nil {
		t.Error("unaligned load accepted")
	}
	if _, err := h.FetchAdd(s.Segment.Size, 1); err == nil {
		t.Error("out-of-segment fetch-add accepted")
	}
	if _, err := coherency.NewCoherentCache(0, s.Directory, s.Hosts[0].Accessor, s.Segment, 0); err == nil {
		t.Error("zero-capacity cache accepted")
	}
	if _, err := coherency.NewCoherentCache(7, s.Directory, s.Hosts[0].Accessor, s.Segment, 4); err == nil {
		t.Error("host id outside directory accepted")
	}
}

// TestCoherentSameHostConcurrency drives several goroutines on ONE
// cache (plus a contending remote host) through the upgrade and fill
// paths: same-host operations on a line are serialised by the pending
// table, so concurrent upgrades must neither share a busy pin nor
// lose increments.
func TestCoherentSameHostConcurrency(t *testing.T) {
	s := coherentSetup(t, 2, 8)
	h0, h1 := s.Hosts[0].Cache, s.Hosts[1].Cache
	const goroutines, per = 4, 100
	var wg sync.WaitGroup
	errs := make([]error, goroutines+1)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				if _, err := h0.FetchAdd(0, 1); err != nil {
					errs[g] = err
					return
				}
				// Force Shared→Exclusive churn on a second line: read
				// it (Shared), then write it (upgrade).
				if _, err := h0.Load(64); err != nil {
					errs[g] = err
					return
				}
				if err := h0.Store(64, uint64(j)); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < per; j++ {
			if _, err := h1.FetchAdd(0, 1); err != nil {
				errs[goroutines] = err
				return
			}
			if _, err := h1.Load(64); err != nil { // steals Shared, forcing h0 re-upgrades
				errs[goroutines] = err
				return
			}
		}
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	got, err := h1.Load(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64((goroutines + 1) * per); got != want {
		t.Errorf("counter = %d, want %d (lost updates under same-host concurrency)", got, want)
	}
}

// failingAccessor wraps an Accessor and fails writes on demand — the
// snooped host's write-back path breaking mid-protocol.
type failingAccessor struct {
	coherency.Accessor
	fail atomic.Bool
}

func (a *failingAccessor) WriteAt(p []byte, off int64) error {
	if a.fail.Load() {
		return errors.New("injected media write failure")
	}
	return a.Accessor.WriteAt(p, off)
}

// TestSnoopWritebackFailureAborts pins the RspRetry flow: when the
// owning host cannot write its dirty line back, the conflicting
// acquire must FAIL (no grant against stale media), the owner must
// keep its line and data, and the system must recover once the fault
// clears.
func TestSnoopWritebackFailureAborts(t *testing.T) {
	s := coherentSetup(t, 2, 16)
	h0 := s.Hosts[0].Cache
	// Host 1 gets a cache over a fault-injectable accessor, replacing
	// the fixture's snooper registration.
	facc := &failingAccessor{Accessor: s.Hosts[1].Accessor}
	h1, err := coherency.NewCoherentCache(1, s.Directory, facc, s.Segment, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Switch.RegisterSnooper(s.Hosts[1].VPPB, h1); err != nil {
		t.Fatal(err)
	}

	if err := h1.Store(0, 77); err != nil {
		t.Fatal(err)
	}
	facc.fail.Store(true)
	if err := h0.Store(0, 88); err == nil {
		t.Fatal("store succeeded while the owner's write-back path is down — grant against stale media")
	}
	// The owner's copy and ownership are intact: its own hit path still
	// serves the value.
	if v, err := h1.Load(0); err != nil || v != 77 {
		t.Fatalf("owner after deferred snoop: %d, %v; want 77", v, err)
	}
	facc.fail.Store(false)
	if err := h0.Store(0, 88); err != nil {
		t.Fatalf("store after fault cleared: %v", err)
	}
	if v, err := h1.Load(0); err != nil || v != 88 {
		t.Fatalf("owner after recovery: %d, %v; want 88", v, err)
	}
}

// TestPartialSnoopSweepCommitsInvalidations pins the abort
// bookkeeping: when an exclusive sweep fails partway, the holders that
// already surrendered must come off the directory record — otherwise
// the NEXT acquire on the line snoops a host that holds nothing and
// waits forever for its release.
func TestPartialSnoopSweepCommitsInvalidations(t *testing.T) {
	s := coherentSetup(t, 3, 16)
	h0, h1, h2 := s.Hosts[0].Cache, s.Hosts[1].Cache, s.Hosts[2].Cache
	if err := h0.Store(0, 5); err != nil {
		t.Fatal(err)
	}
	// h1 and h2 become sharers.
	for _, h := range []*coherency.CoherentCache{h1, h2} {
		if _, err := h.Load(0); err != nil {
			t.Fatal(err)
		}
	}
	// Break host 2's snoop routing: unbinding its vPPB deregisters the
	// snooper, so the sweep h1-then-h2 invalidates h1 and then errors.
	if err := s.Switch.Unbind(s.Hosts[2].VPPB); err != nil {
		t.Fatal(err)
	}
	if err := h0.Store(0, 6); err == nil {
		t.Fatal("exclusive sweep succeeded with a holder unreachable")
	}
	// Restore host 2 and retry: if h1's surrender was not recorded,
	// this acquire would snoop h1, get RspMiss, and hang forever.
	if err := s.Switch.BindShared(s.Hosts[2].VPPB, "gfam"); err != nil {
		t.Fatal(err)
	}
	if err := s.Switch.RegisterSnooper(s.Hosts[2].VPPB, h2); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- h0.Store(0, 7)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("store after sweep recovery: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("store hung: aborted sweep left a stale holder record")
	}
	for i, h := range []*coherency.CoherentCache{h1, h2} {
		if v, err := h.Load(0); err != nil || v != 7 {
			t.Fatalf("host %d after recovery: %d, %v; want 7", i+1, v, err)
		}
	}
}

// TestCoherentHitZeroAlloc is the acceptance guard: cache hits must not
// touch the heap — the pooled line frames absorb all staging.
func TestCoherentHitZeroAlloc(t *testing.T) {
	s := coherentSetup(t, 2, 64)
	h := s.Hosts[0].Cache
	if err := h.Store(0, 42); err != nil {
		t.Fatal(err)
	}
	var buf [64]byte
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := h.Load(0); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Load hit allocates %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := h.Store(0, 7); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Store hit allocates %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := h.Read(buf[:], 0); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Read hit allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkCoherentHit measures the cache-hit fast path (the
// acceptance bound: <= 1/10 of the uncached shared-HDM read measured
// by BenchmarkSharedUncachedRead).
func BenchmarkCoherentHit(b *testing.B) {
	s := coherentSetup(b, 2, 64)
	h := s.Hosts[0].Cache
	if err := h.Store(0, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Load(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSharedUncachedRead is the comparison baseline: one 64-byte
// line read through the raw shared window (what every access costs
// without the coherent cache).
func BenchmarkSharedUncachedRead(b *testing.B) {
	s := coherentSetup(b, 2, 64)
	var line [64]byte
	base := s.Hosts[0].WindowBase
	rp := s.Hosts[0].Port
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rp.ReadLine(base, &line); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoherentPingPong measures the full back-invalidate round
// trip: two hosts alternately writing one line, every write a snoop +
// write-back + invalidate + refill.
func BenchmarkCoherentPingPong(b *testing.B) {
	s := coherentSetup(b, 2, 64)
	h0, h1 := s.Hosts[0].Cache, s.Hosts[1].Cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h0.Store(0, uint64(i)); err != nil {
			b.Fatal(err)
		}
		if err := h1.Store(0, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoherentFetchAdd measures the contended atomic
// read-modify-write from 4 hosts.
func BenchmarkCoherentFetchAdd(b *testing.B) {
	s := coherentSetup(b, 4, 64)
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N/4 + 1
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				if _, err := s.Hosts[i].Cache.FetchAdd(0, 1); err != nil {
					b.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// BenchmarkCoherentSnoopStorm scales the worst case: N hosts all
// fetch-adding ONE line, every operation a full snoop + write-back +
// invalidate + refill of the same 64 bytes (the EXPERIMENTS.md §2e
// scaling table).
func BenchmarkCoherentSnoopStorm(b *testing.B) {
	for _, hosts := range []int{2, 4, 8} {
		b.Run(map[int]string{2: "hosts=2", 4: "hosts=4", 8: "hosts=8"}[hosts], func(b *testing.B) {
			s := coherentSetup(b, hosts, 64)
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N/hosts + 1
			for i := 0; i < hosts; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for j := 0; j < per; j++ {
						if _, err := s.Hosts[i].Cache.FetchAdd(0, 1); err != nil {
							b.Error(err)
							return
						}
					}
				}(i)
			}
			wg.Wait()
		})
	}
}

// BenchmarkPetersonRoundTrip is the comparison baseline from the
// paper's model: one full application-coherency critical section
// (Acquire spin over device words, cached read+write, Flush + release
// write-backs) on an uncontended lock.
func BenchmarkPetersonRoundTrip(b *testing.B) {
	s, err := topology.SetupShared(topology.SharedOptions{
		Hosts:       2,
		SegmentSize: 4096,
		FPGA:        fpga.Options{ChannelCapacity: 4 * units.MiB},
	})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Hosts[0].Peterson
	var word [8]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Acquire(); err != nil {
			b.Fatal(err)
		}
		if err := h.Read(word[:], 0); err != nil {
			b.Fatal(err)
		}
		word[0]++
		if err := h.Write(word[:], 0); err != nil {
			b.Fatal(err)
		}
		if err := h.Release(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWritebackAllFlushesDirtyLines: an explicit writeback pass
// downgrades every Modified frame to Exclusive with its bytes on media,
// so a later remote read recalls only clean copies.
func TestWritebackAllFlushesDirtyLines(t *testing.T) {
	s := coherentSetup(t, 2, 64)
	h0 := s.Hosts[0].Cache
	if got, want := s.Directory.Lines(), uint64(1024); got != want { // 64 KiB segment

		t.Fatalf("directory tracks %d lines, want %d", got, want)
	}
	for i := 0; i < 4; i++ {
		if err := h0.Store(int64(i*64), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Directory.Stats().Writebacks.Load()
	wb := h0.Stats().Writebacks.Load()
	if err := h0.WritebackAll(); err != nil {
		t.Fatal(err)
	}
	if got := h0.Stats().Writebacks.Load(); got != wb+4 {
		t.Fatalf("writebacks after flush = %d, want %d", got, wb+4)
	}
	// The flushed values are durable on media, and the lines are clean:
	// host 1's read recalls them without further write-back traffic.
	if v, err := s.Hosts[1].Cache.Load(64); err != nil || v != 2 {
		t.Fatalf("Load after flush = %d, %v", v, err)
	}
	if got := s.Directory.Stats().Writebacks.Load(); got != before {
		t.Fatalf("recall of clean lines forced %d directory writebacks", got-before)
	}
}
