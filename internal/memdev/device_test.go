package memdev

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"cxlpmem/internal/units"
)

func mustDRAM(t *testing.T, cfg DRAMConfig) *DRAM {
	t.Helper()
	d, err := NewDRAM(cfg)
	if err != nil {
		t.Fatalf("NewDRAM: %v", err)
	}
	return d
}

func testDRAM(t *testing.T) *DRAM {
	return mustDRAM(t, DRAMConfig{
		Name:               "test-ddr5",
		Rate:               4800,
		Channels:           1,
		CapacityPerChannel: 64 * units.MiB,
	})
}

func TestReadWriteRoundTrip(t *testing.T) {
	d := testDRAM(t)
	in := []byte("the quick brown fox jumps over the lazy dog")
	if err := d.WriteAt(in, 12345); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	out := make([]byte, len(in))
	if err := d.ReadAt(out, 12345); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(in, out) {
		t.Errorf("round trip mismatch: got %q", out)
	}
}

func TestUntouchedReadsZero(t *testing.T) {
	d := testDRAM(t)
	out := make([]byte, 256)
	for i := range out {
		out[i] = 0xFF
	}
	if err := d.ReadAt(out, 1<<20); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	for i, b := range out {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
}

func TestCrossPageAccess(t *testing.T) {
	d := testDRAM(t)
	// Straddle a 2 MiB page boundary.
	off := int64(pageSize) - 100
	in := make([]byte, 300)
	for i := range in {
		in[i] = byte(i)
	}
	if err := d.WriteAt(in, off); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	out := make([]byte, 300)
	if err := d.ReadAt(out, off); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(in, out) {
		t.Error("cross-page round trip mismatch")
	}
	if got := d.store.touchedPages(); got != 2 {
		t.Errorf("touchedPages = %d, want 2", got)
	}
}

// TestPageTableOddCapacity: on a device whose capacity is a multiple
// of neither the 2 MiB page nor the 1 GiB leaf, the last byte and the
// first byte of the last leaf round-trip, pages touched out of order
// are listed as ascending, coalesced ranges clipped to the capacity,
// and a power cycle of volatile DRAM drops every page.
func TestPageTableOddCapacity(t *testing.T) {
	d := mustDRAM(t, DRAMConfig{Name: "odd", Rate: 4800, Channels: 1, CapacityPerChannel: units.GiB + 3*units.MiB})
	capBytes := d.Capacity().Bytes()
	ends := map[int64]byte{capBytes - 1: 0x5A, int64(units.GiB): 0xA5}
	for off, b := range ends {
		if err := d.WriteAt([]byte{b}, off); err != nil {
			t.Fatalf("WriteAt(%#x): %v", off, err)
		}
		got := make([]byte, 1)
		if err := d.ReadAt(got, off); err != nil || got[0] != b {
			t.Errorf("ReadAt(%#x) = %#x, %v; want %#x", off, got[0], err, b)
		}
	}
	for _, idx := range []int64{7, 2, 0, 3} {
		if err := d.WriteAt([]byte{1}, idx*pageSize+100); err != nil {
			t.Fatal(err)
		}
	}
	want := []Range{
		{Base: 0, Size: pageSize},
		{Base: 2 * pageSize, Size: 2 * pageSize},
		{Base: 7 * pageSize, Size: pageSize},
		{Base: uint64(units.GiB), Size: uint64(capBytes) - uint64(units.GiB)},
	}
	if got := d.Committed(); !slices.Equal(got, want) {
		t.Errorf("Committed() = %v, want %v", got, want)
	}
	if got := d.store.touchedPages(); got != 6 {
		t.Errorf("touchedPages = %d, want 6", got)
	}
	d.PowerCycle()
	if got := d.store.touchedPages(); got != 0 {
		t.Errorf("after PowerCycle touchedPages = %d, want 0", got)
	}
	for off := range ends {
		got := []byte{0xFF}
		if err := d.ReadAt(got, off); err != nil || got[0] != 0 {
			t.Errorf("after PowerCycle ReadAt(%#x) = %#x, %v; want 0", off, got[0], err)
		}
	}
}

// TestPageFirstTouchRace: eight writers released together into one
// page of an untouched leaf, each writing its own lines, all land in
// the one page that is created.
func TestPageFirstTouchRace(t *testing.T) {
	const writers, lines = 8, 64
	d := mustDRAM(t, DRAMConfig{Name: "race", Rate: 4800, Channels: 1, CapacityPerChannel: 2 * units.GiB})
	base := int64(units.GiB) + 5*pageSize
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			line := bytes.Repeat([]byte{byte(g + 1)}, 64)
			<-start
			for i := g; i < lines; i += writers {
				if err := d.WriteAt(line, base+int64(i)*64); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	got := make([]byte, 64)
	for i := range lines {
		if err := d.ReadAt(got, base+int64(i)*64); err != nil {
			t.Fatal(err)
		}
		if want := bytes.Repeat([]byte{byte(i%writers + 1)}, 64); !bytes.Equal(got, want) {
			t.Errorf("line %d reads %#x, want writer %d's %#x", i, got[0], i%writers, want[0])
		}
	}
	if n := d.store.touchedPages(); n != 1 {
		t.Errorf("touchedPages = %d, want 1", n)
	}
	// Snapshot follows the list of pages, so it sees the one page once.
	if _, w, _, bw := d.Stats().Snapshot(); w != lines || bw != lines*64 {
		t.Errorf("Snapshot counts %d writes of %d bytes, want %d of %d", w, bw, lines, lines*64)
	}
}

func TestOutOfRangeAccess(t *testing.T) {
	d := testDRAM(t)
	capBytes := d.Capacity().Bytes()
	cases := []struct {
		off int64
		n   int
	}{
		{-1, 4},
		{capBytes, 1},
		{capBytes - 2, 4},
		{0, int(capBytes) + 1},
		{math.MaxInt64 - 10, 20},
	}
	for _, c := range cases {
		err := d.WriteAt(make([]byte, c.n), c.off)
		var ae *AddrError
		if !errors.As(err, &ae) {
			t.Errorf("WriteAt(off=%d, n=%d): err = %v, want AddrError", c.off, c.n, err)
			continue
		}
		if ae.Device != "test-ddr5" {
			t.Errorf("AddrError.Device = %q", ae.Device)
		}
		if err := d.ReadAt(make([]byte, c.n), c.off); !errors.As(err, &ae) {
			t.Errorf("ReadAt(off=%d, n=%d): err = %v, want AddrError", c.off, c.n, err)
		}
	}
	if s := (&AddrError{Device: "x", Off: 5, Len: 3, Cap: 4}).Error(); s == "" {
		t.Error("empty AddrError string")
	}
}

func TestBoundaryAccessAtCapacity(t *testing.T) {
	d := testDRAM(t)
	capBytes := d.Capacity().Bytes()
	buf := []byte{1, 2, 3, 4}
	if err := d.WriteAt(buf, capBytes-4); err != nil {
		t.Fatalf("write at tail: %v", err)
	}
	out := make([]byte, 4)
	if err := d.ReadAt(out, capBytes-4); err != nil {
		t.Fatalf("read at tail: %v", err)
	}
	if !bytes.Equal(buf, out) {
		t.Error("tail round trip mismatch")
	}
}

func TestVolatileDRAMLosesDataOnPowerCycle(t *testing.T) {
	d := testDRAM(t)
	if d.Persistent() {
		t.Fatal("plain DRAM should be volatile")
	}
	if err := d.WriteAt([]byte{42}, 0); err != nil {
		t.Fatal(err)
	}
	d.PowerCycle()
	out := make([]byte, 1)
	if err := d.ReadAt(out, 0); err != nil {
		t.Fatal(err)
	}
	if out[0] != 0 {
		t.Errorf("after power cycle byte = %d, want 0", out[0])
	}
}

func TestBatteryBackedDRAMSurvivesPowerCycle(t *testing.T) {
	d := mustDRAM(t, DRAMConfig{
		Name:               "bbu-dimm",
		Rate:               2666,
		Channels:           1,
		CapacityPerChannel: units.MiB,
		BatteryBacked:      true,
	})
	if !d.Persistent() {
		t.Fatal("battery-backed DRAM should be persistent")
	}
	if err := d.WriteAt([]byte{42}, 100); err != nil {
		t.Fatal(err)
	}
	d.PowerCycle()
	out := make([]byte, 1)
	if err := d.ReadAt(out, 100); err != nil {
		t.Fatal(err)
	}
	if out[0] != 42 {
		t.Errorf("after power cycle byte = %d, want 42", out[0])
	}
}

func TestDCPMMSurvivesPowerCycle(t *testing.T) {
	d, err := NewDCPMM(DCPMMConfig{Name: "pmem", Modules: 1, Capacity: units.MiB})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Persistent() {
		t.Fatal("DCPMM should be persistent")
	}
	if err := d.WriteAt([]byte("persist"), 0); err != nil {
		t.Fatal(err)
	}
	d.PowerCycle()
	out := make([]byte, 7)
	if err := d.ReadAt(out, 0); err != nil {
		t.Fatal(err)
	}
	if string(out) != "persist" {
		t.Errorf("after power cycle = %q", out)
	}
}

func TestDRAMPeakBandwidth(t *testing.T) {
	d := testDRAM(t)
	// 4800 MT/s * 8 B * 0.78 = 29.952 GB/s.
	got := d.Profile().ReadPeak.GBps()
	if got < 29.9 || got > 30.0 {
		t.Errorf("DDR5-4800 1ch sustained peak = %v GB/s, want ~29.95", got)
	}
	if d.Profile().ReadPeak != d.Profile().WritePeak {
		t.Error("DRAM peaks should be symmetric")
	}
	if d.Profile().Kind != KindDRAM {
		t.Errorf("Kind = %v", d.Profile().Kind)
	}
}

func TestDCPMMAsymmetry(t *testing.T) {
	d, err := NewDCPMM(DCPMMConfig{Name: "pmem", Modules: 1, Capacity: 128 * units.GiB})
	if err != nil {
		t.Fatal(err)
	}
	p := d.Profile()
	if got := p.ReadPeak.GBps(); got != 6.6 {
		t.Errorf("read peak = %v, want 6.6", got)
	}
	if got := p.WritePeak.GBps(); got != 2.3 {
		t.Errorf("write peak = %v, want 2.3", got)
	}
	if p.Kind != KindDCPMM {
		t.Errorf("Kind = %v", p.Kind)
	}
	// Six interleaved modules scale up.
	d6, err := NewDCPMM(DCPMMConfig{Name: "pmem6", Modules: 6, Capacity: 128 * units.GiB})
	if err != nil {
		t.Fatal(err)
	}
	if got := d6.Profile().ReadPeak.GBps(); got < 39.5 || got > 39.7 {
		t.Errorf("6-module read peak = %v, want ~39.6", got)
	}
	if got := d6.Capacity(); got != 768*units.GiB {
		t.Errorf("capacity = %v", got)
	}
}

func TestStreamPeakMix(t *testing.T) {
	p := Profile{ReadPeak: units.GBps(6.6), WritePeak: units.GBps(2.3)}
	// Pure read and pure write hit the respective peaks.
	if got := p.StreamPeak(1).GBps(); got != 6.6 {
		t.Errorf("read-only mix = %v", got)
	}
	if got := p.StreamPeak(0).GBps(); got != 2.3 {
		t.Errorf("write-only mix = %v", got)
	}
	// Copy (1R:1W) is the harmonic mean region: between the two,
	// closer to the write peak.
	mid := p.StreamPeak(0.5).GBps()
	if mid <= 2.3 || mid >= 6.6 {
		t.Errorf("50/50 mix = %v, want in (2.3, 6.6)", mid)
	}
	if mid >= (6.6+2.3)/2 {
		t.Errorf("50/50 mix = %v, want below arithmetic mean (write-bound)", mid)
	}
	// Out-of-range fractions clamp.
	if got := p.StreamPeak(2); got != p.StreamPeak(1) {
		t.Error("frac > 1 should clamp to 1")
	}
	if got := p.StreamPeak(-1); got != p.StreamPeak(0) {
		t.Error("frac < 0 should clamp to 0")
	}
	// Degenerate profile.
	if got := (Profile{}).StreamPeak(0.5); got != 0 {
		t.Errorf("zero profile = %v, want 0", got)
	}
}

func TestStreamPeakSymmetricUnchanged(t *testing.T) {
	p := Profile{ReadPeak: units.GBps(20), WritePeak: units.GBps(20)}
	for _, f := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got := p.StreamPeak(f).GBps(); got < 19.999 || got > 20.001 {
			t.Errorf("symmetric mix frac=%v = %v, want 20", f, got)
		}
	}
}

func TestStatsCounters(t *testing.T) {
	d := testDRAM(t)
	if err := d.WriteAt(make([]byte, 128), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadAt(make([]byte, 64), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadAt(make([]byte, 64), 64); err != nil {
		t.Fatal(err)
	}
	r, w, br, bw := d.Stats().Snapshot()
	if r != 2 || w != 1 || br != 128 || bw != 128 {
		t.Errorf("stats = (%d, %d, %d, %d), want (2, 1, 128, 128)", r, w, br, bw)
	}
	// Failed accesses do not count.
	_ = d.ReadAt(make([]byte, 1), -1)
	_ = d.WriteAt(make([]byte, 2), d.Capacity().Bytes()-1)
	if r2, w2, _, _ := d.Stats().Snapshot(); r2 != 2 || w2 != 1 {
		t.Errorf("failed access counted: %d reads, %d writes", r2, w2)
	}

	// Accesses that take no page lock count in the atomics, as every
	// access once did: a read of a page never written, and a
	// zero-length read or write.
	if err := d.ReadAt(make([]byte, 100), 5*pageSize); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadAt(nil, 64); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteAt(nil, 5*pageSize); err != nil {
		t.Fatal(err)
	}
	if got := d.store.touchedPages(); got != 1 {
		t.Errorf("touchedPages = %d, want 1: a read or an empty write materialised a page", got)
	}
	if r, w, br, bw := d.Stats().Snapshot(); r != 4 || w != 2 || br != 228 || bw != 128 {
		t.Errorf("stats = (%d, %d, %d, %d), want (4, 2, 228, 128)", r, w, br, bw)
	}

	// An access across a page boundary is one op, counted on the first
	// page it touches, and its bytes are split across the pages. A read
	// whose first page was never written counts its op, and that page's
	// bytes, in the atomics.
	if err := d.WriteAt(make([]byte, 300), 3*pageSize-100); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadAt(make([]byte, 300), 3*pageSize-100); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadAt(make([]byte, 300), 2*pageSize-100); err != nil {
		t.Fatal(err)
	}
	if r, w, br, bw := d.Stats().Snapshot(); r != 6 || w != 3 || br != 828 || bw != 428 {
		t.Errorf("stats = (%d, %d, %d, %d), want (6, 3, 828, 428)", r, w, br, bw)
	}
	type counts struct{ reads, writes, bytesRead, bytesWritten int64 }
	for idx, want := range map[int64]counts{2: {1, 1, 300, 100}, 3: {0, 0, 200, 200}} {
		pg := d.store.lookup(idx)
		if got := (counts{pg.reads, pg.writes, pg.bytesRead, pg.bytesWritten}); got != want {
			t.Errorf("page %d counts %+v, want %+v", idx, got, want)
		}
	}
	if r, br := d.stats.reads.Load(), d.stats.bytesRead.Load(); r != 3 || br != 200 {
		t.Errorf("atomic reads = %d of %d bytes, want 3 of 200", r, br)
	}

	// A power cycle of volatile media releases the bytes and keeps every
	// count where it was. A read of a released page reads zeros and
	// counts in that page.
	d.PowerCycle()
	if r, w, br, bw := d.Stats().Snapshot(); r != 6 || w != 3 || br != 828 || bw != 428 {
		t.Errorf("after PowerCycle stats = (%d, %d, %d, %d), want (6, 3, 828, 428)", r, w, br, bw)
	}
	p := []byte{1, 2, 3}
	if err := d.ReadAt(p, 3*pageSize); err != nil {
		t.Fatal(err)
	}
	if p[0]|p[1]|p[2] != 0 {
		t.Errorf("read of a released page = %v, want zeros", p)
	}
	if pg := d.store.lookup(3); pg.reads != 1 || pg.bytesRead != 203 {
		t.Errorf("page 3 counts %d reads of %d bytes, want 1 of 203", pg.reads, pg.bytesRead)
	}
}

// watchSnapshots takes Snapshots of s on its own goroutine until the
// returned stop is called, and fails t if any counter reads lower than
// it did in the Snapshot before.
func watchSnapshots(t *testing.T, s *Stats) (stop func()) {
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var prev [4]int64
		for !done.Load() {
			r, w, br, bw := s.Snapshot()
			cur := [4]int64{r, w, br, bw}
			for i := range cur {
				if cur[i] < prev[i] {
					t.Errorf("Snapshot counter %d went %d -> %d", i, prev[i], cur[i])
					return
				}
			}
			prev = cur
		}
	}()
	return func() {
		done.Store(true)
		wg.Wait()
	}
}

// TestSnapshotUnderLoad: goroutines read and write lines of pages they
// share and of pages of their own while another takes Snapshots. No
// Snapshot reads lower than the one before it, and the last equals the
// exact totals.
func TestSnapshotUnderLoad(t *testing.T) {
	d := testDRAM(t)
	const workers, ops = 4, 2000
	stop := watchSnapshots(t, d.Stats())
	var wg sync.WaitGroup
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			line := make([]byte, 64)
			own := int64(4+g) * pageSize // a page of this worker's own
			for i := range ops {
				// Even ops hit one of two shared pages, odd ops the own page.
				off := own + int64(i%64)*64
				if i%2 == 0 {
					off = int64(i%4/2)*pageSize + int64(g*64+i%16)*64
				}
				if err := d.WriteAt(line[:8+i%57], off); err != nil {
					t.Error(err)
					return
				}
				if err := d.ReadAt(line, off); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	stop()
	var wantBytes int64
	for i := range ops {
		wantBytes += int64(8 + i%57)
	}
	r, w, br, bw := d.Stats().Snapshot()
	if want := int64(workers * ops); r != want || w != want || br != want*64 || bw != workers*wantBytes {
		t.Errorf("stats = (%d, %d, %d, %d), want (%d, %d, %d, %d)",
			r, w, br, bw, want, want, want*64, workers*wantBytes)
	}
}

// TestPowerCycleCountsEachAccessOnce: writers and readers run while a
// volatile device power-cycles over and over, so accesses and
// Snapshots race the release of each page's bytes. Every access that
// returned nil is counted exactly once, and no Snapshot reads lower
// than the one before it.
func TestPowerCycleCountsEachAccessOnce(t *testing.T) {
	d := testDRAM(t)
	const workers, ops = 4, 3000
	stop := watchSnapshots(t, d.Stats())
	var done atomic.Bool
	var cycles sync.WaitGroup
	cycles.Add(1)
	go func() {
		defer cycles.Done()
		for !done.Load() {
			d.PowerCycle()
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	var reads, writes, bytesRead, bytesWritten atomic.Int64
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 200)
			for i := range ops {
				// Some accesses cross from page g into page g+1.
				off := int64(g+1)*pageSize - 100 + int64(i%3)*64
				n := 1 + i%len(buf)
				if err := d.WriteAt(buf[:n], off); err == nil {
					writes.Add(1)
					bytesWritten.Add(int64(n))
				}
				if err := d.ReadAt(buf[:n], off); err == nil {
					reads.Add(1)
					bytesRead.Add(int64(n))
				}
			}
		}()
	}
	wg.Wait()
	done.Store(true)
	cycles.Wait()
	stop()
	d.PowerCycle()
	r, w, br, bw := d.Stats().Snapshot()
	if r != reads.Load() || w != writes.Load() || br != bytesRead.Load() || bw != bytesWritten.Load() {
		t.Errorf("stats = (%d, %d, %d, %d), want (%d, %d, %d, %d)", r, w, br, bw,
			reads.Load(), writes.Load(), bytesRead.Load(), bytesWritten.Load())
	}
	if got := d.store.touchedPages(); got != 0 {
		t.Errorf("touchedPages after the last PowerCycle = %d, want 0", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	d := testDRAM(t)
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w) * 1 << 20
			buf := []byte{byte(w), byte(w + 1), byte(w + 2), byte(w + 3)}
			for i := 0; i < perWorker; i++ {
				off := base + int64(i)*8
				if err := d.WriteAt(buf, off); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				out := make([]byte, 4)
				if err := d.ReadAt(out, off); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if !bytes.Equal(buf, out) {
					t.Errorf("worker %d: read %v, want %v", w, out, buf)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// Property: any sequence of writes followed by reads of the same ranges
// returns exactly what was written (no aliasing between pages).
func TestSparseStoreProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, st := newSparseStore(16*units.MiB), new(Stats)
		type chunk struct {
			off  int64
			data []byte
		}
		var chunks []chunk
		// Non-overlapping chunks in distinct 4 KiB slots.
		slots := rng.Perm(4096)[:32]
		for _, slot := range slots {
			n := rng.Intn(2048) + 1
			data := make([]byte, n)
			rng.Read(data)
			off := int64(slot) * 4096
			s.writeAt(data, off, st)
			chunks = append(chunks, chunk{off, data})
		}
		for _, c := range chunks {
			out := make([]byte, len(c.data))
			s.readAt(out, c.off, st)
			if !bytes.Equal(out, c.data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestNewDRAMValidation(t *testing.T) {
	bad := []DRAMConfig{
		{Name: "x", Rate: 4800, Channels: 0, CapacityPerChannel: units.MiB},
		{Name: "x", Rate: 4800, Channels: -1, CapacityPerChannel: units.MiB},
		{Name: "x", Rate: 4800, Channels: 1, CapacityPerChannel: 0},
		{Name: "x", Rate: 0, Channels: 1, CapacityPerChannel: units.MiB},
		{Name: "x", Rate: 4800, Channels: 1, CapacityPerChannel: units.MiB, Efficiency: 1.5},
		{Name: "x", Rate: 4800, Channels: 1, CapacityPerChannel: units.MiB, Efficiency: -0.5},
	}
	for i, cfg := range bad {
		if _, err := NewDRAM(cfg); err == nil {
			t.Errorf("case %d: NewDRAM accepted invalid config %+v", i, cfg)
		}
	}
}

func TestNewDCPMMValidation(t *testing.T) {
	if _, err := NewDCPMM(DCPMMConfig{Name: "x", Modules: 0, Capacity: units.MiB}); err == nil {
		t.Error("accepted zero modules")
	}
	if _, err := NewDCPMM(DCPMMConfig{Name: "x", Modules: 1, Capacity: 0}); err == nil {
		t.Error("accepted zero capacity")
	}
}

func TestKindString(t *testing.T) {
	if KindDRAM.String() != "DRAM" || KindCXLHDM.String() != "CXL-HDM" || KindDCPMM.String() != "DCPMM" {
		t.Error("Kind.String mismatch")
	}
	if Kind(99).String() != "Kind(99)" {
		t.Error("unknown kind string")
	}
}

func TestStringers(t *testing.T) {
	d := mustDRAM(t, DRAMConfig{Name: "ddr5-socket0", Rate: 4800, Channels: 1, CapacityPerChannel: 64 * units.GiB})
	if got := d.String(); got != "ddr5-socket0: 1x64GiB DDR-4800" {
		t.Errorf("DRAM.String = %q", got)
	}
	p, err := NewDCPMM(DCPMMConfig{Name: "opt", Modules: 2, Capacity: 128 * units.GiB})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.String(); got != "opt: 2x128GiB Optane DCPMM" {
		t.Errorf("DCPMM.String = %q", got)
	}
	if d.cfg.Rate != 4800 || p.cfg.Modules != 2 {
		t.Error("construction parameters not kept")
	}
}
