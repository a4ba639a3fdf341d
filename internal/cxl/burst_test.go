package cxl

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// burstPort builds a trained port over a 16 MiB Type-3 device with one
// window at base 0.
func burstPort(t *testing.T, size uint64) (*RootPort, *Type3Device) {
	t.Helper()
	dev := testType3(t)
	if err := dev.ProgramDecoder(&HDMDecoder{Base: 0, Size: size}); err != nil {
		t.Fatal(err)
	}
	return trainedPort(t, dev), dev
}

func TestBurstRoundTrip(t *testing.T) {
	rp, dev := burstPort(t, 1<<20)
	for _, lines := range []int{1, 3, MaxBurstLines, MaxBurstLines + 17} {
		n := lines * LineSize
		in := make([]byte, n)
		for i := range in {
			in[i] = byte(i*7 + lines)
		}
		if err := rp.WriteBurst(4096, in); err != nil {
			t.Fatalf("WriteBurst(%d lines): %v", lines, err)
		}
		out := make([]byte, n)
		if err := rp.ReadBurst(4096, out); err != nil {
			t.Fatalf("ReadBurst(%d lines): %v", lines, err)
		}
		if !bytes.Equal(in, out) {
			t.Errorf("%d-line burst round trip mismatch", lines)
		}
	}
	if dev.Stats().WriteBursts.Load() == 0 || dev.Stats().ReadBursts.Load() == 0 {
		t.Error("burst transactions not counted")
	}
	// 1 + 3 + 64 + 81 lines in each direction.
	if got := dev.Stats().BurstLines.Load(); got != 2*(1+3+MaxBurstLines+MaxBurstLines+17) {
		t.Errorf("burst lines = %d", got)
	}
}

func TestBurstRejectsUnaligned(t *testing.T) {
	rp, _ := burstPort(t, 1<<20)
	buf := make([]byte, LineSize)
	if err := rp.WriteBurst(3, buf); err == nil {
		t.Error("unaligned burst address accepted")
	}
	if err := rp.ReadBurst(0, make([]byte, LineSize+1)); err == nil {
		t.Error("non-line-multiple burst length accepted")
	}
}

func TestBurstFlitCounts(t *testing.T) {
	rp, _ := burstPort(t, 1<<20)
	var flits int
	rp.SetFault(func(f Flit) Flit { flits++; return f })
	const lines = 8
	buf := make([]byte, lines*LineSize)
	if err := rp.WriteBurst(0, buf); err != nil {
		t.Fatal(err)
	}
	// Header + lines data beats + completion.
	if flits != lines+2 {
		t.Errorf("write burst traced %d flits, want %d", flits, lines+2)
	}
	flits = 0
	if err := rp.ReadBurst(0, buf); err != nil {
		t.Fatal(err)
	}
	if flits != lines+2 {
		t.Errorf("read burst traced %d flits, want %d", flits, lines+2)
	}
}

func TestBurstRetryRecoversTransientDataCorruption(t *testing.T) {
	rp, _ := burstPort(t, 1<<20)
	// Corrupt the third flit once (a data beat of the write burst).
	n := 0
	rp.SetFault(func(f Flit) Flit {
		n++
		if n == 3 {
			return f.Corrupt(200)
		}
		return f
	})
	in := make([]byte, 4*LineSize)
	for i := range in {
		in[i] = byte(i)
	}
	if err := rp.WriteBurst(0, in); err != nil {
		t.Fatalf("burst with transient data corruption: %v", err)
	}
	rp.SetFault(nil)
	out := make([]byte, len(in))
	if err := rp.ReadBurst(0, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in, out) {
		t.Error("data corrupted despite retry")
	}
	if rp.Stats().Retries != 1 {
		t.Errorf("retries = %d, want 1", rp.Stats().Retries)
	}
}

func TestBurstRetryExhaustionOnDataFlit(t *testing.T) {
	rp, _ := burstPort(t, 1<<20)
	// Corrupt every data flit; headers pass. The data-beat LRSM must
	// give up after maxLinkRetries.
	rp.SetFault(func(f Flit) Flit {
		if f.raw[0] == flitKindData {
			return f.Corrupt(50)
		}
		return f
	})
	err := rp.WriteBurst(0, make([]byte, 2*LineSize))
	if err == nil {
		t.Fatal("persistent data-flit corruption not detected")
	}
	pe, ok := err.(*PortError)
	if !ok || !strings.Contains(pe.Why, "data flit") {
		t.Errorf("err = %v, want PortError on data flit", err)
	}
	if rp.Stats().Retries < maxLinkRetries {
		t.Errorf("retries = %d, want >= %d", rp.Stats().Retries, maxLinkRetries)
	}
}

func TestBurstSpanningWindowEnd(t *testing.T) {
	rp, dev := burstPort(t, 1<<20) // window [0, 1 MiB)
	buf := make([]byte, 4*LineSize)
	start := uint64(1<<20) - 2*uint64(LineSize)
	if err := rp.WriteBurst(start, buf); err == nil {
		t.Error("write burst spanning window end accepted")
	}
	if err := rp.ReadBurst(start, buf); err == nil {
		t.Error("read burst spanning window end accepted")
	}
	if dev.Stats().Errors.Load() == 0 {
		t.Error("device did not count the out-of-window burst")
	}
	// A burst spanning the window end must not partially commit: the
	// in-window tail lines stay untouched.
	probe := make([]byte, 2*LineSize)
	ones := bytes.Repeat([]byte{0xFF}, len(buf))
	if err := rp.WriteBurst(start, ones); err == nil {
		t.Fatal("second spanning burst accepted")
	}
	if err := rp.ReadBurst(start, probe); err != nil {
		t.Fatal(err)
	}
	for i, b := range probe {
		if b != 0 {
			t.Fatalf("byte %d of failed burst reached media", i)
		}
	}
}

func TestBurstAcrossTwoWindows(t *testing.T) {
	// Two adjacent HPA windows onto disjoint halves of the media: a
	// burst crossing the seam cannot use the contiguous fast path and
	// must fall back to per-line decode — transparently.
	dev := testType3(t)
	if err := dev.ProgramDecoder(&HDMDecoder{Base: 0, Size: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	if err := dev.ProgramDecoder(&HDMDecoder{Base: 1 << 20, Size: 1 << 20, DPABase: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	rp := trainedPort(t, dev)
	in := make([]byte, 8*LineSize)
	for i := range in {
		in[i] = byte(255 - i)
	}
	start := uint64(1<<20) - 4*uint64(LineSize)
	if err := rp.WriteBurst(start, in); err != nil {
		t.Fatalf("seam-crossing burst: %v", err)
	}
	out := make([]byte, len(in))
	if err := rp.ReadBurst(start, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in, out) {
		t.Error("seam-crossing burst round trip mismatch")
	}
}

func TestBurstPoisonedLineFailsWhole(t *testing.T) {
	rp, dev := burstPort(t, 1<<20)
	const poisoned = 2 * uint64(LineSize)
	dev.SetPoisonChecker(func(dpa, n uint64) bool { return dpa <= poisoned && poisoned < dpa+n })
	buf := make([]byte, 4*LineSize)
	if err := rp.ReadBurst(0, buf); err == nil {
		t.Error("burst over poisoned line accepted")
	}
	// Bursts clear of the poisoned line still work.
	if err := rp.ReadBurst(4*uint64(LineSize), buf); err != nil {
		t.Errorf("burst beside poisoned line failed: %v", err)
	}
}

// TestSetPoisonCheckerInvalidatesSpanHook guards hook consistency: a
// custom checker installed after the mailbox must govern lines and
// bursts alike — the mailbox's probe may not linger and mask it.
func TestSetPoisonCheckerInvalidatesSpanHook(t *testing.T) {
	rp, dev := burstPort(t, 1<<20)
	if _, err := NewMailbox(dev, "fw"); err != nil {
		t.Fatal(err)
	}
	dev.SetPoisonChecker(func(dpa, n uint64) bool { return dpa == 0 })
	buf := make([]byte, 4*LineSize)
	if err := rp.ReadBurst(0, buf); err == nil {
		t.Error("contiguous burst ignored the custom checker")
	}
	var line [LineSize]byte
	if err := rp.ReadLine(0, &line); err == nil {
		t.Error("line read ignored the custom checker")
	}
}

// TestReadWriteAtEdgeCases drives rp.ReadAt/WriteAt over randomized
// unaligned spans and checks every byte against a reference image —
// head/tail MemWrPtl masking, single-line interiors, burst interiors
// and line-boundary crossings all at once.
func TestReadWriteAtEdgeCases(t *testing.T) {
	rp, dev := burstPort(t, 1<<20)
	const arena = 16 << 10
	ref := make([]byte, arena)
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		off := rng.Intn(arena - 1)
		n := 1 + rng.Intn(arena-off-1)
		if n > 10*LineSize {
			n = 1 + rng.Intn(10*LineSize)
		}
		span := make([]byte, n)
		rng.Read(span)
		copy(ref[off:off+n], span)
		if err := rp.WriteAt(span, int64(off)); err != nil {
			t.Fatalf("WriteAt(%d, %d): %v", off, n, err)
		}
	}
	got := make([]byte, arena)
	if err := rp.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, got) {
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("first mismatch at byte %d: got %#x want %#x", i, got[i], ref[i])
			}
		}
	}
	if dev.Stats().PartialWrites.Load() == 0 {
		t.Error("no MemWrPtl issued for unaligned edges")
	}
	// Unaligned reads over the same image.
	for iter := 0; iter < 100; iter++ {
		off := rng.Intn(arena - 1)
		n := 1 + rng.Intn(arena-off-1)
		if n > 6*LineSize {
			n = 1 + rng.Intn(6*LineSize)
		}
		out := make([]byte, n)
		if err := rp.ReadAt(out, int64(off)); err != nil {
			t.Fatalf("ReadAt(%d, %d): %v", off, n, err)
		}
		if !bytes.Equal(out, ref[off:off+n]) {
			t.Fatalf("ReadAt(%d, %d) mismatch", off, n)
		}
	}
}

// TestWrPtlMaskCorrectness checks the byte mask directly: a partial
// write must touch exactly the masked bytes.
func TestWrPtlMaskCorrectness(t *testing.T) {
	rp, _ := burstPort(t, 1<<20)
	base := make([]byte, LineSize)
	for i := range base {
		base[i] = 0xEE
	}
	if err := rp.WriteAt(base, 0); err != nil {
		t.Fatal(err)
	}
	// Sub-line write [5, 9).
	if err := rp.WriteAt([]byte{1, 2, 3, 4}, 5); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, LineSize)
	if err := rp.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, LineSize)
	copy(want, base)
	copy(want[5:9], []byte{1, 2, 3, 4})
	if !bytes.Equal(got, want) {
		t.Errorf("mask write result:\n got %v\nwant %v", got[:16], want[:16])
	}
}

// TestRootPortAtFailsNamingSegment splits an unaligned ReadAt and
// WriteAt into head line, burst interior and tail line, and breaks one
// segment at a time: the call fails with that segment's own opcode and
// address.
func TestRootPortAtFailsNamingSegment(t *testing.T) {
	const off = 40 // head [40, 64), interior [64, 192), tail [192, 202)
	p := make([]byte, 162)
	for _, tc := range []struct {
		write bool
		addr  uint64
		op    string
	}{
		{true, 0, "MemWrPtl"},
		{true, 64, "MemWrBurst"},
		{true, 192, "MemWrPtl"},
		{false, 0, "MemRd"},
		{false, 64, "MemRdBurst"},
		{false, 192, "MemRd"},
	} {
		rp, _ := burstPort(t, 1<<20)
		rp.SetFault(func(f Flit) Flit {
			if f.PeekKind() == flitKindReq && f.PeekAddr() == tc.addr {
				return f.Corrupt(9)
			}
			return f
		})
		var err error
		if tc.write {
			err = rp.WriteAt(p, off)
		} else {
			err = rp.ReadAt(p, off)
		}
		var pe *PortError
		if !errors.Is(err, ErrUncorrectable) || !errors.As(err, &pe) || pe.Op != tc.op || pe.Addr != tc.addr {
			t.Errorf("write=%v, segment @%#x broken: %v, want ErrUncorrectable naming %s @%#x", tc.write, tc.addr, err, tc.op, tc.addr)
		}
	}
}

// TestZeroAllocSteadyState is the allocation-regression guard: the
// line and burst data paths must not allocate per operation.
func TestZeroAllocSteadyState(t *testing.T) {
	rp, _ := burstPort(t, 1<<20)
	var line [LineSize]byte
	buf := make([]byte, 8*LineSize)
	// Warm up: materialise sparse-store pages and pool buffers.
	if err := rp.WriteBurst(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := rp.WriteLine(0, &line); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(){
		"WriteLine":  func() { _ = rp.WriteLine(0, &line) },
		"ReadLine":   func() { _ = rp.ReadLine(0, &line) },
		"WriteBurst": func() { _ = rp.WriteBurst(0, buf) },
		"ReadBurst":  func() { _ = rp.ReadBurst(0, buf) },
		"WriteAt/4":  func() { _ = rp.WriteAt(buf[:4], 8) },
		// ReadAt stages sub-line reads through a line on its stack, so
		// these hold under the race detector too.
		"ReadAt/4":            func() { _ = rp.ReadAt(buf[:4], 8) },
		"ReadAt/64":           func() { _ = rp.ReadAt(buf[:LineSize], 0) },
		"ReadAt/64-unaligned": func() { _ = rp.ReadAt(buf[:LineSize], 32) },
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

// TestBurstAgreesWithLineDecodeOnOverlap guards decoder-selection
// consistency: when an interleaved decoder and a plain decoder overlap
// the same HPA range, bursts must resolve addresses through the same
// decoder per-line transactions use (first match in programming
// order), falling back to per-line decode rather than fast-pathing
// through the wrong window.
func TestBurstAgreesWithLineDecodeOnOverlap(t *testing.T) {
	dev := testType3(t)
	// Interleaved decoder programmed first: this device owns the even
	// 256 B granules of [0, 1 MiB).
	if err := dev.ProgramDecoder(&HDMDecoder{
		Base: 0, Size: 1 << 20, InterleaveWays: 2, InterleaveGranule: 256, TargetIndex: 0,
	}); err != nil {
		t.Fatal(err)
	}
	// Overlapping plain decoder onto a different DPA range.
	if err := dev.ProgramDecoder(&HDMDecoder{Base: 0, Size: 1 << 20, DPABase: 2 << 20}); err != nil {
		t.Fatal(err)
	}
	rp := trainedPort(t, dev)
	in := make([]byte, 4*LineSize) // within one owned granule
	for i := range in {
		in[i] = byte(i + 1)
	}
	if err := rp.WriteBurst(0, in); err != nil {
		t.Fatal(err)
	}
	// Per-line reads must observe exactly what the burst wrote.
	for i := 0; i < 4; i++ {
		var line [LineSize]byte
		if err := rp.ReadLine(uint64(i*LineSize), &line); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line[:], in[i*LineSize:(i+1)*LineSize]) {
			t.Fatalf("line %d: burst and line transactions disagree on the target DPA", i)
		}
	}
}

// TestBurstMailboxPoison covers the span-granular RAS path: poison
// injected through the device mailbox must fail bursts over the
// poisoned span (contiguous fast path included) and clear cleanly.
func TestBurstMailboxPoison(t *testing.T) {
	rp, dev := burstPort(t, 1<<20)
	mb, err := NewMailbox(dev, "test-fw")
	if err != nil {
		t.Fatal(err)
	}
	var addr [8]byte
	poisonDPA := uint64(5 * LineSize)
	for i := 0; i < 8; i++ {
		addr[i] = byte(poisonDPA >> (8 * i))
	}
	if _, status := mb.Execute(OpInjectPoison, addr[:]); status != MboxSuccess {
		t.Fatalf("inject poison: %v", status)
	}
	buf := make([]byte, 8*LineSize)
	if err := rp.ReadBurst(0, buf); err == nil {
		t.Error("burst over mailbox-poisoned line accepted")
	}
	if err := rp.ReadBurst(8*uint64(LineSize), buf); err != nil {
		t.Errorf("burst clear of poison failed: %v", err)
	}
	if _, status := mb.Execute(OpClearPoison, addr[:]); status != MboxSuccess {
		t.Fatalf("clear poison: %v", status)
	}
	if err := rp.ReadBurst(0, buf); err != nil {
		t.Errorf("burst after poison clear failed: %v", err)
	}
}
