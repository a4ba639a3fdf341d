package ras

import (
	"testing"

	"cxlpmem/internal/memdev"
	"cxlpmem/internal/units"
)

func testMedia(t *testing.T) memdev.Device {
	t.Helper()
	d, err := memdev.NewDRAM(memdev.DRAMConfig{
		Name:               "ras-test-dram",
		Rate:               3200,
		Channels:           1,
		CapacityPerChannel: 8 * units.MiB,
		IdleLatency:        units.Nanoseconds(90),
		Efficiency:         0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestZeroFill(t *testing.T) {
	m := testMedia(t)
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = 0xAB
	}
	if err := m.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := ZeroFill(m, 1024, 2048); err != nil {
		t.Fatal(err)
	}
	if err := m.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		want := byte(0xAB)
		if i >= 1024 && i < 1024+2048 {
			want = 0
		}
		if b != want {
			t.Fatalf("byte %d = %#x, want %#x", i, b, want)
		}
	}
}

func TestHealthStateMachine(t *testing.T) {
	p := NewPlane(Thresholds{})
	m := testMedia(t)
	if err := p.Register("dev", m, DeviceOptions{}); err != nil {
		t.Fatal(err)
	}
	if st := p.Health("dev").State; st != Healthy {
		t.Fatalf("fresh device state %s, want healthy", st)
	}
	// Healthy -> Offline is illegal.
	if err := p.MarkOffline("dev", "skip evacuation"); err == nil {
		t.Fatal("healthy -> offline transition allowed")
	}
	// Threshold trip: uncorrectable errors degrade.
	m.Stats().Uncorrectable.Add(DefaultThresholds.MaxUncorrectable)
	st, err := p.Evaluate("dev")
	if err != nil || st != Degraded {
		t.Fatalf("Evaluate = %s, %v; want degraded", st, err)
	}
	if err := p.MarkEvacuating("dev", "draining"); err != nil {
		t.Fatal(err)
	}
	if err := p.MarkOffline("dev", "drained"); err != nil {
		t.Fatal(err)
	}
	// Offline devices are not re-degraded and not scrubbed.
	if n, done, err := p.scrubStep("dev", 4096); n != 0 || done || err != nil {
		t.Fatalf("offline scrub step = %d, %v, %v", n, done, err)
	}
	// Hot-add: back to healthy re-baselines the counters so the old
	// error history does not immediately re-trip.
	if err := p.MarkHealthy("dev", "replaced"); err != nil {
		t.Fatal(err)
	}
	if st, err := p.Evaluate("dev"); err != nil || st != Healthy {
		t.Fatalf("post-replacement Evaluate = %s, %v; want healthy", st, err)
	}
	evs := p.Events()
	if len(evs) < 4 {
		t.Fatalf("expected >= 4 state-change events, got %d: %v", len(evs), evs)
	}
	for _, e := range evs {
		if e.Kind != EventStateChange {
			t.Fatalf("unexpected event kind %s", e.Kind)
		}
	}
}

func TestPatrolScrubFindsLatentPoison(t *testing.T) {
	p := NewPlane(Thresholds{MaxCorrectable: 3, MaxUncorrectable: 100, MaxLinkRetries: 1 << 30})
	m := testMedia(t)
	// Commit some media so patrol has a footprint to walk.
	buf := make([]byte, 64*1024)
	if err := m.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	poison := map[uint64]bool{0x1000: true, 0x2040: true, 0x8000: true}
	if err := p.Register("dev", m, DeviceOptions{
		Poisoned: func(dpa uint64) bool { return poison[dpa] },
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ScrubPass("dev"); err != nil {
		t.Fatal(err)
	}
	h := p.Health("dev")
	if h.PoisonedLines != 3 {
		t.Fatalf("poisoned lines = %d, want 3", h.PoisonedLines)
	}
	if got := m.Stats().RAS().Correctable; got != 3 {
		t.Fatalf("correctable = %d, want 3", got)
	}
	// A second pass over the same latent faults must not double count.
	if _, err := p.ScrubPass("dev"); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().RAS().Correctable; got != 3 {
		t.Fatalf("correctable after second pass = %d, want 3", got)
	}
	poisonEvents := 0
	for _, e := range p.Events() {
		if e.Kind == EventScrubPoison {
			poisonEvents++
			if !poison[e.DPA] {
				t.Fatalf("poison event at unpoisoned dpa %#x", e.DPA)
			}
		}
	}
	if poisonEvents != 3 {
		t.Fatalf("poison events = %d, want 3", poisonEvents)
	}
	// Density above threshold degrades the device.
	if st, err := p.Evaluate("dev"); err != nil || st != Degraded {
		t.Fatalf("Evaluate = %s, %v; want degraded", st, err)
	}
}

// TestScrubStepAllocs is the satellite alloc guard: a mid-pass patrol
// step on a clean device allocates nothing.
func TestScrubStepAllocs(t *testing.T) {
	p := NewPlane(Thresholds{})
	m := testMedia(t)
	buf := make([]byte, 4<<20)
	if err := m.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Register("dev", m, DeviceOptions{
		Poisoned: func(uint64) bool { return false },
	}); err != nil {
		t.Fatal(err)
	}
	// Prime the pass so the range walk is cached.
	if _, _, err := p.scrubStep("dev", 4096); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := p.scrubStep("dev", 4096); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("patrol scrub steady state allocates %.1f/op, want 0", allocs)
	}
}

// TestEventAndStateStrings pins the human-readable forms the CLI and
// logs print, and drives the event ring past its cap so overflow drops
// the oldest entry rather than growing without bound.
func TestEventAndStateStrings(t *testing.T) {
	for st, want := range map[State]string{
		Healthy: "healthy", Degraded: "degraded",
		Evacuating: "evacuating", Offline: "offline",
		State(99): "State(99)",
	} {
		if got := st.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", int(st), got, want)
		}
	}
	for k, want := range map[EventKind]string{
		EventScrubPoison: "scrub-poison", EventScrubPass: "scrub-pass",
		EventStateChange: "state-change", EventKind(7): "EventKind(7)",
	} {
		if got := k.String(); got != want {
			t.Errorf("EventKind.String() = %q, want %q", got, want)
		}
	}
	for _, e := range []Event{
		{Seq: 1, Device: "d", Kind: EventScrubPoison, DPA: 0x40},
		{Seq: 2, Device: "d", Kind: EventScrubPass, Detail: "pass 1"},
		{Seq: 3, Device: "d", Kind: EventStateChange, From: Healthy, To: Degraded, Detail: "why"},
		{Seq: 4, Device: "d", Kind: EventKind(7), Detail: "x"},
	} {
		if e.String() == "" {
			t.Errorf("event %+v has empty String", e)
		}
	}

	p := NewPlane(DefaultThresholds)
	for i := 0; i < maxEvents+8; i++ {
		p.emitLocked(Event{Device: "ring", Kind: EventScrubPass})
	}
	evs := p.Events()
	if len(evs) != maxEvents {
		t.Fatalf("ring drained %d events, want cap %d", len(evs), maxEvents)
	}
	if evs[0].Seq != 9 { // the first 8 were dropped
		t.Errorf("oldest surviving seq = %d, want 9", evs[0].Seq)
	}
	if len(p.Events()) != 0 {
		t.Error("drain did not clear the ring")
	}
}
