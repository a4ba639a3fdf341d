package cxl

import (
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"testing"
)

// ringPort builds a trained port over a 16 MiB Type-3 device with one
// window at base 0 — the ring tests' fixture.
func ringPort(t *testing.T) *RootPort {
	t.Helper()
	rp, _ := burstPort(t, 1<<24)
	return rp
}

// vcBlock returns the base HPA of the n-th vcStride-line block, i.e.
// the n-th consecutive address window mapped to VC n&(NumVCs-1).
func vcBlock(n int) uint64 { return uint64(n) * uint64(vcStride*LineSize) }

// drain harvests until want completions arrive, failing the test if the
// ring goes quiet first.
func drain(t *testing.T, rp *RootPort, want int) []Completed {
	t.Helper()
	out := make([]Completed, 0, want)
	buf := make([]Completed, want)
	for spins := 0; len(out) < want; spins++ {
		n := rp.Harvest(buf[:want-len(out)])
		out = append(out, buf[:n]...)
		if n == 0 {
			rp.Flush()
			if spins > 1000 {
				t.Fatalf("harvested %d of %d completions, ring quiet", len(out), want)
			}
		}
	}
	return out
}

// TestRingTagWraparound drives one VC through several full ring laps
// and checks that no wire tag ever repeats while descriptors from
// different laps could be confused: RingSlots ≪ 2^vcTagBits, so tags
// stay unique across many consecutive laps, and the VC bits are stable.
func TestRingTagWraparound(t *testing.T) {
	rp := ringPort(t)
	base := vcBlock(0) // every address below stays on VC 0
	seen := make(map[uint16]int)
	var line [LineSize]byte
	total := 3 * RingSlots // three full laps
	for i := 0; i < total; i += 16 {
		tags := make([]uint16, 0, 16)
		for j := 0; j < 16; j++ {
			c, err := rp.SubmitWrite(base+uint64((j%vcStride)*LineSize), &line)
			if err != nil {
				t.Fatal(err)
			}
			tags = append(tags, c.Tag())
		}
		rp.Flush()
		for _, got := range drain(t, rp, 16) {
			if got.Err != nil {
				t.Fatalf("completion error: %v", got.Err)
			}
		}
		for _, tag := range tags {
			if tag>>vcTagBits != 0 {
				t.Fatalf("tag %#x not on VC 0", tag)
			}
			if prev, dup := seen[tag]; dup {
				t.Fatalf("tag %#x reused (first at batch %d, again at %d)", tag, prev, i)
			}
			seen[tag] = i
		}
	}
	if len(seen) != total {
		t.Fatalf("saw %d distinct tags, want %d", len(seen), total)
	}
}

// TestRingOutOfOrderDelivery submits descriptors across several VCs in
// an interleaved order, consumes one mid-batch token via Wait, and
// checks Harvest delivers exactly the others — in whatever order the
// rings drain, which differs from submission order.
func TestRingOutOfOrderDelivery(t *testing.T) {
	rp := ringPort(t)
	var line [LineSize]byte
	// Submission order: VC 3, 1, 2, 0 — harvest drains rings 0..7 in
	// index order, so delivery cannot match submission order.
	order := []int{3, 1, 2, 0}
	want := make(map[uint16]bool)
	var tokens []Completion
	var submitted []uint16
	for _, vc := range order {
		for j := 0; j < 4; j++ {
			c, err := rp.SubmitWrite(vcBlock(vc)+uint64(j*LineSize), &line)
			if err != nil {
				t.Fatal(err)
			}
			tokens = append(tokens, c)
			submitted = append(submitted, c.Tag())
			want[c.Tag()] = true
		}
	}
	rp.Flush()
	// Consume one mid-batch token directly: it must never surface in
	// Harvest afterwards.
	waited := tokens[5]
	if err := waited.Wait(); err != nil {
		t.Fatal(err)
	}
	delete(want, waited.Tag())
	got := drain(t, rp, len(want))
	inOrder := true
	for i, c := range got {
		if c.Err != nil {
			t.Fatalf("completion %#x: %v", c.Tag, c.Err)
		}
		if !want[c.Tag] {
			t.Fatalf("unexpected or duplicate tag %#x (waited tag %#x)", c.Tag, waited.Tag())
		}
		delete(want, c.Tag)
		if c.Tag != submitted[i] {
			inOrder = false
		}
	}
	if len(want) != 0 {
		t.Fatalf("%d completions never delivered", len(want))
	}
	if inOrder {
		t.Fatal("delivery order matched submission order exactly; expected out-of-order delivery across VCs")
	}
	if n := rp.Harvest(make([]Completed, 4)); n != 0 {
		t.Fatalf("harvest after drain returned %d stale completions", n)
	}
}

// reqFlitTag extracts the wire tag of a payload-carrying request flit.
func reqFlitTag(f *Flit) (uint16, bool) {
	if f.raw[0] != flitKindReq {
		return 0, false
	}
	return uint16(binary.LittleEndian.Uint64(f.raw[0:8]) >> 16), true
}

// TestRingFaultRetriesOnlyFailedDescriptor injects a one-shot CRC fault
// into the request flit of descriptor k in a flushed write batch: only
// that flit is retransmitted (one link retry total) and every
// descriptor still completes cleanly.
func TestRingFaultRetriesOnlyFailedDescriptor(t *testing.T) {
	rp := ringPort(t)
	const batch = 8
	var tokens []Completion
	var lines [batch][LineSize]byte
	for j := range lines {
		for b := range lines[j] {
			lines[j][b] = byte(17*j + b)
		}
	}
	for j := 0; j < batch; j++ {
		c, err := rp.SubmitWrite(vcBlock(0)+uint64(j*LineSize), &lines[j])
		if err != nil {
			t.Fatal(err)
		}
		tokens = append(tokens, c)
	}
	k := tokens[3].Tag()
	faults := 0
	rp.SetFault(func(f Flit) Flit {
		if tag, ok := reqFlitTag(&f); ok && tag == k && faults == 0 {
			faults++
			f.raw[flitHeaderSize] ^= 0xFF // corrupt payload: CRC check fails
		}
		return f
	})
	rp.Flush()
	rp.SetFault(nil)
	for _, c := range drain(t, rp, batch) {
		if c.Err != nil {
			t.Fatalf("tag %#x failed despite per-flit retry: %v", c.Tag, c.Err)
		}
	}
	if got := rp.Stats().Retries; got != 1 {
		t.Fatalf("retries = %d, want exactly 1 (only descriptor k's flit resent)", got)
	}
	// The retried write and its neighbours all landed.
	for j := 0; j < batch; j++ {
		var got [LineSize]byte
		if err := rp.ReadLine(vcBlock(0)+uint64(j*LineSize), &got); err != nil {
			t.Fatal(err)
		}
		if got != lines[j] {
			t.Fatalf("line %d payload corrupted by neighbour's fault", j)
		}
	}
}

// TestRingPersistentFaultFailsOnlyDescriptorK keeps corrupting
// descriptor k's request flit past the retry budget: k completes with
// ErrUncorrectable, the other descriptors in the same batch succeed.
func TestRingPersistentFaultFailsOnlyDescriptorK(t *testing.T) {
	rp := ringPort(t)
	const batch = 6
	var line [LineSize]byte
	var tokens []Completion
	for j := 0; j < batch; j++ {
		c, err := rp.SubmitWrite(vcBlock(0)+uint64(j*LineSize), &line)
		if err != nil {
			t.Fatal(err)
		}
		tokens = append(tokens, c)
	}
	k := tokens[2].Tag()
	rp.SetFault(func(f Flit) Flit {
		if tag, ok := reqFlitTag(&f); ok && tag == k {
			f.raw[flitHeaderSize] ^= 0xFF
		}
		return f
	})
	rp.Flush()
	rp.SetFault(nil)
	failed := 0
	for _, c := range drain(t, rp, batch) {
		if c.Tag == k {
			failed++
			if !errors.Is(c.Err, ErrUncorrectable) {
				t.Fatalf("descriptor k error = %v, want ErrUncorrectable", c.Err)
			}
			continue
		}
		if c.Err != nil {
			t.Fatalf("descriptor %#x failed alongside k: %v", c.Tag, c.Err)
		}
	}
	if failed != 1 {
		t.Fatalf("descriptor k surfaced %d times, want 1", failed)
	}
}

// TestRingFullBackpressure fills one VC without consuming anything:
// Submit* reports ErrRingFull (wrapped, errors.Is-able) once every slot
// is done-but-unconsumed, and a single Harvest unblocks the ring.
func TestRingFullBackpressure(t *testing.T) {
	rp := ringPort(t)
	var line [LineSize]byte
	for j := 0; j < RingSlots; j++ {
		if _, err := rp.SubmitWrite(vcBlock(0)+uint64((j%vcStride)*LineSize), &line); err != nil {
			t.Fatalf("submit %d: %v", j, err)
		}
	}
	// Slot 0's completion is still unconsumed after the internal flush,
	// so the next submission on this VC must report a full ring.
	if _, err := rp.SubmitWrite(vcBlock(0), &line); !errors.Is(err, ErrRingFull) {
		t.Fatalf("submit on full ring: err = %v, want ErrRingFull", err)
	}
	if n := rp.Harvest(make([]Completed, 1)); n != 1 {
		t.Fatalf("harvest freed %d slots, want 1", n)
	}
	if _, err := rp.SubmitWrite(vcBlock(0), &line); err != nil {
		t.Fatalf("submit after harvest: %v", err)
	}
	rp.Flush()
	drain(t, rp, RingSlots)
}

// TestRingConcurrentSubmittersOneVC hammers a single VC from several
// goroutines — submitters using both consumption styles (Wait and
// Flush+Harvest) — under -race. Every submission must complete, the
// ring must keep cycling across many laps, and the data must land. A
// harvester running beside Wait-style submitters can consume their
// tokens first; each outcome still surfaces exactly once.
func TestRingConcurrentSubmittersOneVC(t *testing.T) {
	rp := ringPort(t)
	const (
		workers = 4
		iters   = 200
	)
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	var harvested sync.WaitGroup
	stop := make(chan struct{})
	harvested.Add(1)
	go func() {
		defer harvested.Done()
		buf := make([]Completed, RingSlots)
		for {
			select {
			case <-stop:
				// Final sweep so Wait-less completions all drain.
				rp.Flush()
				rp.Harvest(buf)
				return
			default:
				rp.Harvest(buf)
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var line [LineSize]byte
			line[0] = byte(w + 1)
			addr := vcBlock(0) + uint64(w*LineSize) // distinct line, same VC
			for i := 0; i < iters; i++ {
				var c Completion
				var err error
				for {
					c, err = rp.SubmitWrite(addr, &line)
					if err == nil {
						break
					}
					if !errors.Is(err, ErrRingFull) {
						errCh <- err
						return
					}
					runtime.Gosched() // backpressure: let the harvester drain
				}
				if w%2 == 0 {
					// Wait-style consumer. The harvester may drain the
					// completion first; then Wait reports ErrConsumed
					// and the outcome surfaced there instead.
					if err := c.Wait(); err != nil && !errors.Is(err, ErrConsumed) {
						errCh <- err
						return
					}
				} else {
					// Doorbell-style: flush and let the harvester drain.
					rp.Flush()
				}
			}
			errCh <- nil
		}(w)
	}
	wg.Wait()
	close(stop)
	harvested.Wait()
	for w := 0; w < workers; w++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < workers; w++ {
		var got [LineSize]byte
		if err := rp.ReadLine(vcBlock(0)+uint64(w*LineSize), &got); err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(w+1) {
			t.Fatalf("worker %d line = %#x, want %#x", w, got[0], w+1)
		}
	}
	// The ring still cycles: one more full lap on the same VC.
	var line [LineSize]byte
	for j := 0; j < RingSlots; j++ {
		if _, err := rp.SubmitWrite(vcBlock(0)+uint64((j%vcStride)*LineSize), &line); err != nil {
			t.Fatal(err)
		}
	}
	rp.Flush()
	drain(t, rp, RingSlots)
}

// TestRingWaitAfterHarvestIsConsumed waits on a token that Harvest
// already drained, after its slot has been reused by the next lap: the
// Wait must report ErrConsumed and leave the later descriptor to
// Harvest, not consume the slot's new occupant.
func TestRingWaitAfterHarvestIsConsumed(t *testing.T) {
	rp := ringPort(t)
	var line [LineSize]byte
	old, err := rp.SubmitWrite(vcBlock(0), &line)
	if err != nil {
		t.Fatal(err)
	}
	rp.Flush()
	if n := rp.Harvest(make([]Completed, 1)); n != 1 {
		t.Fatalf("harvested %d completions, want 1", n)
	}
	// One full lap on the same VC: old's slot now holds a later descriptor.
	for j := 0; j < RingSlots; j++ {
		if _, err := rp.SubmitWrite(vcBlock(0)+uint64((j%vcStride)*LineSize), &line); err != nil {
			t.Fatal(err)
		}
	}
	rp.Flush()
	if err := old.Wait(); !errors.Is(err, ErrConsumed) {
		t.Fatalf("Wait on a harvested token = %v, want ErrConsumed", err)
	}
	for _, c := range drain(t, rp, RingSlots) {
		if c.Err != nil {
			t.Fatalf("completion %#x: %v", c.Tag, c.Err)
		}
	}
	if n := rp.Harvest(make([]Completed, 1)); n != 0 {
		t.Fatalf("harvest after drain returned %d stale completions", n)
	}
}

// TestRingZeroAllocSteadyState guards the rings' 0 allocs/op claim on
// submit, flush, harvest and the ring-backed synchronous path.
func TestRingZeroAllocSteadyState(t *testing.T) {
	rp := ringPort(t)
	var line [LineSize]byte
	done := make([]Completed, 16)
	// Warm the pools (flit scratch, immediate tokens) outside the
	// measured window.
	for j := 0; j < 16; j++ {
		if _, err := rp.SubmitWrite(vcBlock(0)+uint64(j*LineSize), &line); err != nil {
			t.Fatal(err)
		}
	}
	rp.Flush()
	drain(t, rp, 16)
	if avg := testing.AllocsPerRun(100, func() {
		for j := 0; j < 16; j++ {
			if _, err := rp.SubmitWrite(vcBlock(0)+uint64(j*LineSize), &line); err != nil {
				t.Fatal(err)
			}
		}
		rp.Flush()
		for got := 0; got < 16; {
			got += rp.Harvest(done[got:])
		}
	}); avg != 0 {
		t.Fatalf("submit/flush/harvest allocates %.1f per cycle, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if err := rp.WriteLine(vcBlock(0), &line); err != nil {
			t.Fatal(err)
		}
		if err := rp.ReadLine(vcBlock(0), &line); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("sync line path allocates %.1f per pair, want 0", avg)
	}
}

// TestPortStatsSnapshot checks the folded PortStats accessor against
// known traffic.
func TestPortStatsSnapshot(t *testing.T) {
	rp := ringPort(t)
	var line [LineSize]byte
	const ops = 24
	for j := 0; j < ops; j++ {
		if _, err := rp.SubmitWrite(vcBlock(j%2)+uint64(j/2*LineSize), &line); err != nil {
			t.Fatal(err)
		}
	}
	rp.Flush()
	drain(t, rp, ops)
	st := rp.Stats()
	if st.Issued != ops {
		t.Errorf("Issued = %d, want %d", st.Issued, ops)
	}
	if st.Flushed != ops {
		t.Errorf("Flushed = %d, want %d", st.Flushed, ops)
	}
	if st.Harvested != ops {
		t.Errorf("Harvested = %d, want %d", st.Harvested, ops)
	}
	if st.Doorbells == 0 || st.Doorbells > ops {
		t.Errorf("Doorbells = %d, want in [1, %d]", st.Doorbells, ops)
	}
	var vcIssued int64
	for _, vc := range st.VCs {
		vcIssued += vc.Issued
	}
	if vcIssued != st.Issued {
		t.Errorf("per-VC issued sums to %d, total says %d", vcIssued, st.Issued)
	}
	var vcRetries int64
	for _, vc := range st.VCs {
		vcRetries += vc.Retries
	}
	if vcRetries != st.Retries {
		t.Errorf("per-VC retries sum to %d, total says %d", vcRetries, st.Retries)
	}
}
