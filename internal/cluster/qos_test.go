package cluster

import (
	"testing"
	"time"

	"cxlpmem/internal/memdev"
	"cxlpmem/internal/units"
)

// TestThrottlePace: a tenant whose counters show more bytes since its
// epoch than its share allows sleeps in pace, for no longer than the
// deficit; a tenant within its share, or one whose epoch SetShare has
// just rebased, does not sleep.
func TestThrottlePace(t *testing.T) {
	th := newThrottle(units.GBps(1))
	var ahead, within memdev.Stats
	if err := th.register("ahead", &ahead, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := th.register("within", &within, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := th.budget("nobody"); err == nil {
		t.Error("budget of an unregistered tenant accepted")
	}
	a, err := th.budget("ahead")
	if err != nil {
		t.Fatal(err)
	}
	w, err := th.budget("within")
	if err != nil {
		t.Fatal(err)
	}

	// 5 MB at a 0.5 GB/s share is 10 ms of allowance.
	const deficit = 10 * time.Millisecond
	ahead.BytesWrite.Add(5e6)
	t0 := time.Now()
	slept := th.pace(a)
	if slept <= 0 || slept > deficit {
		t.Errorf("tenant ahead of its share slept %v, want within (0, %v]", slept, deficit)
	}
	if took := time.Since(t0); took < slept {
		t.Errorf("pace returned after %v, before the %v it reports sleeping", took, slept)
	}

	within.BytesRead.Add(64)
	if slept := th.pace(w); slept != 0 {
		t.Errorf("tenant within its share slept %v", slept)
	}

	ahead.BytesWrite.Add(5e6)
	if err := th.SetShare("ahead", 0.25); err != nil {
		t.Fatal(err)
	}
	if slept := th.pace(a); slept != 0 {
		t.Errorf("tenant slept %v for bytes moved before SetShare rebased its epoch", slept)
	}
}
