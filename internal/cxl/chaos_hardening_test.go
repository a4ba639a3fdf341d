package cxl

import (
	"errors"
	"testing"
	"time"
)

// withWatchdog fails the test if fn does not return within d — the
// chaos-hardening tests' hang detector (before the Detach drain fix,
// several of these scenarios wedged forever).
func withWatchdog(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		fn()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("watchdog expired: scenario wedged")
	}
}

// TestDetachCompletesPublishedDescriptors is the surprise-removal
// regression test: descriptors submitted (published, unflushed) before
// a Detach must complete with ErrLinkDown instead of leaving their
// waiters and harvesters blocked forever. Without the Flush in Detach
// this test hangs.
func TestDetachCompletesPublishedDescriptors(t *testing.T) {
	rp := ringPort(t)
	var bufs [8][LineSize]byte
	var tokens []Completion
	for i := 0; i < 8; i++ {
		c, err := rp.SubmitRead(vcBlock(i)+uint64(i*LineSize), &bufs[i])
		if err != nil {
			t.Fatal(err)
		}
		tokens = append(tokens, c)
	}
	// No Flush: the descriptors are published but nothing has moved.
	rp.Detach()
	withWatchdog(t, 10*time.Second, func() {
		for i, c := range tokens {
			if err := c.Wait(); !errors.Is(err, ErrLinkDown) {
				t.Errorf("token %d: %v, want ErrLinkDown", i, err)
			}
		}
	})
	// The rings must stay usable as error sources, not wedge: a
	// post-detach submission publishes fine (link state is a flush-time
	// property) and completes with ErrLinkDown.
	var line [LineSize]byte
	c, err := rp.SubmitRead(0, &line)
	if err != nil {
		t.Fatalf("post-detach submit: %v", err)
	}
	withWatchdog(t, 10*time.Second, func() {
		if err := c.Wait(); !errors.Is(err, ErrLinkDown) {
			t.Errorf("post-detach completion: %v, want ErrLinkDown", err)
		}
	})
}

// TestFailedRetrainDrainsDescriptors: CompleteRetrain(false) is a
// surprise removal from the Retraining state — queued descriptors
// complete with ErrLinkDown, parked transactions unblock.
func TestFailedRetrainDrainsDescriptors(t *testing.T) {
	rp := ringPort(t)
	if err := rp.StartRetrain(); err != nil {
		t.Fatal(err)
	}
	var line [LineSize]byte
	c, err := rp.SubmitWrite(0, &line)
	if err != nil {
		t.Fatal(err)
	}
	parked := make(chan error, 1)
	go func() {
		var l [LineSize]byte
		parked <- rp.WriteLine(uint64(LineSize), &l)
	}()
	time.Sleep(2 * time.Millisecond) // let the sync op park
	rp.CompleteRetrain(false)
	withWatchdog(t, 10*time.Second, func() {
		if err := c.Wait(); !errors.Is(err, ErrLinkDown) {
			t.Errorf("queued descriptor: %v, want ErrLinkDown", err)
		}
		if err := <-parked; !errors.Is(err, ErrLinkDown) {
			t.Errorf("parked transaction: %v, want ErrLinkDown", err)
		}
	})
	if rp.State() != LinkDown {
		t.Errorf("state %v after failed retrain, want down", rp.State())
	}
}

// TestRetrainParkAndReplay: transactions arriving while the link
// retrains park and replay when it comes back up — no error surfaces
// and the data round-trips.
func TestRetrainParkAndReplay(t *testing.T) {
	rp := ringPort(t)
	if err := rp.StartRetrain(); err != nil {
		t.Fatal(err)
	}
	if got := rp.State(); got != Retraining {
		t.Fatalf("state %v after StartRetrain, want retraining", got)
	}
	time.AfterFunc(5*time.Millisecond, func() { rp.CompleteRetrain(true) })
	var line [LineSize]byte
	for i := range line {
		line[i] = byte(i ^ 0x5A)
	}
	start := time.Now()
	withWatchdog(t, 10*time.Second, func() {
		if err := rp.WriteLine(0, &line); err != nil {
			t.Errorf("parked write: %v", err)
		}
	})
	if elapsed := time.Since(start); elapsed < 4*time.Millisecond {
		t.Errorf("write completed in %v: did not park across the retrain", elapsed)
	}
	var out [LineSize]byte
	if err := rp.ReadLine(0, &out); err != nil {
		t.Fatal(err)
	}
	if out != line {
		t.Error("replayed write did not round-trip")
	}
	if got := rp.Stats().Retrains; got != 1 {
		t.Errorf("retrains = %d, want 1", got)
	}
}

// TestRetrainTimeout: a retrain that never completes bounds the parked
// transaction at RetrainTimeout with ErrTimeout, counts it, and the
// port recovers fully once the link finally trains.
func TestRetrainTimeout(t *testing.T) {
	rp := ringPort(t)
	rp.SetOptions(PortOptions{RetrainTimeout: 10 * time.Millisecond})
	if err := rp.StartRetrain(); err != nil {
		t.Fatal(err)
	}
	var line [LineSize]byte
	withWatchdog(t, 10*time.Second, func() {
		if err := rp.WriteLine(0, &line); !errors.Is(err, ErrTimeout) {
			t.Errorf("parked write past deadline: %v, want ErrTimeout", err)
		}
	})
	if got := rp.Stats().Timeouts; got == 0 {
		t.Error("expired retrain park not counted in Timeouts")
	}
	rp.CompleteRetrain(true)
	if err := rp.WriteLine(0, &line); err != nil {
		t.Errorf("write after recovered retrain: %v", err)
	}
}

// TestWaitTimeoutAbandon: a waiter whose deadline expires while another
// flusher is stuck mid-span gets ErrTimeout; when the completion lands
// late, the completer self-consumes the abandoned slot and the ring
// keeps working for several more laps.
func TestWaitTimeoutAbandon(t *testing.T) {
	rp := ringPort(t)
	block := make(chan struct{})
	var gated bool
	rp.SetFault(func(f Flit) Flit {
		if !gated {
			gated = true
			<-block // strand the flusher mid-transaction
		}
		return f
	})
	var line [LineSize]byte
	c, err := rp.SubmitWrite(0, &line)
	if err != nil {
		t.Fatal(err)
	}
	flushed := make(chan struct{})
	go func() {
		rp.Flush() // claims the span, blocks in the fault hook
		close(flushed)
	}()
	time.Sleep(2 * time.Millisecond)
	start := time.Now()
	err = c.WaitTimeout(5 * time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("WaitTimeout = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("WaitTimeout took %v: deadline not honoured", elapsed)
	}
	if got := rp.Stats().Timeouts; got == 0 {
		t.Error("abandoned wait not counted in Timeouts")
	}
	close(block)
	<-flushed
	rp.SetFault(nil)
	// The abandoned slot must have been self-consumed: the same VC runs
	// several full laps without wedging.
	withWatchdog(t, 10*time.Second, func() {
		for i := 0; i < 3*RingSlots; i++ {
			if err := rp.WriteLine(0, &line); err != nil {
				t.Fatalf("post-abandon write %d: %v", i, err)
			}
		}
	})
}

// TestWaitTimeoutCompletedFast: a deadline far in the future degrades
// to a normal wait and returns the real completion.
func TestWaitTimeoutCompletedFast(t *testing.T) {
	rp := ringPort(t)
	var line [LineSize]byte
	c, err := rp.SubmitWrite(0, &line)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitTimeout(5 * time.Second); err != nil {
		t.Fatalf("WaitTimeout with ample deadline: %v", err)
	}
	if got := rp.Stats().Timeouts; got != 0 {
		t.Errorf("successful wait counted as timeout (%d)", got)
	}
}

// TestRetryBackoffBudget: PortOptions govern the retransmission budget
// and pace retries with exponential backoff — a permanently corrupted
// link burns the enlarged budget, takes at least the deterministic
// minimum backoff time, and reports ErrUncorrectable.
func TestRetryBackoffBudget(t *testing.T) {
	rp := ringPort(t)
	rp.SetOptions(PortOptions{MaxLinkRetries: 5, RetryBackoff: time.Millisecond})
	if got := rp.Options().MaxLinkRetries; got != 5 {
		t.Fatalf("MaxLinkRetries = %d after SetOptions, want 5", got)
	}
	rp.SetFault(func(f Flit) Flit { return f.Corrupt(9) })
	var line [LineSize]byte
	start := time.Now()
	err := rp.WriteLine(0, &line)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("hard-corrupted write: %v, want ErrUncorrectable", err)
	}
	if got := rp.Stats().Retries; got != 5 {
		t.Errorf("retries = %d, want the budget 5", got)
	}
	// Five attempts back off 1+2+4+8+8 ms (capped at 8×), jittered down
	// at most 25%: ≥ ~17ms in the worst case.
	if elapsed < 15*time.Millisecond {
		t.Errorf("budget burned in %v: backoff not applied", elapsed)
	}
	rp.SetFault(nil)
	if err := rp.WriteLine(0, &line); err != nil {
		t.Errorf("clean write after budget exhaustion: %v", err)
	}
}

// TestPortTimeoutTelemetry: the new Timeouts/Retrains counters surface
// through the registry as cxl_port_timeouts_total / cxl_port_retrains_total.
func TestPortTimeoutTelemetry(t *testing.T) {
	rp, reg, _ := telemetryPort(t)
	rp.SetOptions(PortOptions{RetrainTimeout: 5 * time.Millisecond})
	if err := rp.StartRetrain(); err != nil {
		t.Fatal(err)
	}
	var line [LineSize]byte
	if err := rp.WriteLine(0, &line); !errors.Is(err, ErrTimeout) {
		t.Fatalf("parked write: %v, want ErrTimeout", err)
	}
	rp.CompleteRetrain(true)
	want := map[string]float64{"cxl_port_timeouts_total": 1, "cxl_port_retrains_total": 1}
	for _, s := range reg.Gather() {
		if exp, ok := want[s.Name]; ok {
			if s.Value != exp {
				t.Errorf("%s = %v, want %v", s.Name, s.Value, exp)
			}
			delete(want, s.Name)
		}
	}
	for name := range want {
		t.Errorf("metric %s not gathered", name)
	}
}
