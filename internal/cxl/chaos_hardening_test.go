package cxl

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// withWatchdog fails the test if fn does not return within d — the
// chaos-hardening tests' hang detector for link-state transitions.
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
// test: a read held mid-flight in the fault hook when Detach runs
// finishes on the session it loaded, and eight concurrent reads issued
// after the Detach each fail with ErrLinkDown instead of blocking.
func TestDetachCompletesPublishedDescriptors(t *testing.T) {
	rp := testPort(t)
	want := [LineSize]byte{0: 0xA5, LineSize - 1: 0x5A}
	if err := rp.WriteLine(0, &want); err != nil {
		t.Fatal(err)
	}
	entered, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	rp.SetFault(func(f Flit) Flit {
		once.Do(func() {
			close(entered)
			<-gate // hold the read's request flit on the wire
		})
		return f
	})
	held := make(chan error, 1)
	var got [LineSize]byte
	go func() { held <- rp.ReadLine(0, &got) }()
	<-entered
	rp.Detach()
	close(gate)
	withWatchdog(t, 10*time.Second, func() {
		if err := <-held; err != nil {
			t.Errorf("read in flight across Detach: %v, want it to finish on its session", err)
		}
	})
	if got != want {
		t.Error("read in flight across Detach returned the wrong line")
	}
	withWatchdog(t, 10*time.Second, func() {
		var wg sync.WaitGroup
		var errs [8]error
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var line [LineSize]byte
				errs[i] = rp.ReadLine(vcBlock(i)+uint64(i*LineSize), &line)
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if !errors.Is(err, ErrLinkDown) {
				t.Errorf("read %d after Detach: %v, want ErrLinkDown", i, err)
			}
		}
	})
}

// TestFailedRetrainDrainsDescriptors: CompleteRetrain(false) is a
// surprise removal from the Retraining state — eight writers parked on
// eight different VCs all unblock with ErrLinkDown.
func TestFailedRetrainDrainsDescriptors(t *testing.T) {
	rp := testPort(t)
	if err := rp.StartRetrain(); err != nil {
		t.Fatal(err)
	}
	parked := make(chan error, NumVCs)
	for i := 0; i < NumVCs; i++ {
		go func(i int) {
			var line [LineSize]byte
			parked <- rp.WriteLine(vcBlock(i), &line)
		}(i)
	}
	// Each writer takes its sequence number before it parks.
	withWatchdog(t, 10*time.Second, func() {
		for rp.Stats().Issued < NumVCs {
			time.Sleep(100 * time.Microsecond)
		}
	})
	for i, vc := range rp.Stats().VCs {
		if vc.Issued != 1 {
			t.Fatalf("VC %d issued %d writes, want 1", i, vc.Issued)
		}
	}
	rp.CompleteRetrain(false)
	withWatchdog(t, 10*time.Second, func() {
		for i := 0; i < NumVCs; i++ {
			if err := <-parked; !errors.Is(err, ErrLinkDown) {
				t.Errorf("parked writer: %v, want ErrLinkDown", err)
			}
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
	rp := testPort(t)
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
	rp := testPort(t)
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

// TestRetryBackoffBudget: PortOptions govern the retransmission budget
// and pace retries with exponential backoff — a permanently corrupted
// link burns the enlarged budget, takes at least the deterministic
// minimum backoff time, and reports ErrUncorrectable.
func TestRetryBackoffBudget(t *testing.T) {
	rp := testPort(t)
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
