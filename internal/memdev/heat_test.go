package memdev

import (
	"sync"
	"testing"

	"cxlpmem/internal/units"
)

func TestHeatWindowedEpochs(t *testing.T) {
	var s Stats
	h, err := s.EnableHeat(8*units.MiB, 2*units.MiB.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(h.cur) != 4 || h.granule != 2*units.MiB.Bytes() {
		t.Fatalf("regions=%d granule=%d", len(h.cur), h.granule)
	}
	// Touches accumulate in the current window, not the epoch snapshot.
	h.touch(0, 64)
	h.touch(64, 64)
	h.touch(2*units.MiB.Bytes(), 64)
	if got := h.cur[0].Load(); got != 2 {
		t.Errorf("current[0] = %d, want 2", got)
	}
	if got := h.EpochCount(0); got != 0 {
		t.Errorf("epoch count before any epoch = %d, want 0", got)
	}
	if n := h.AdvanceEpoch(); n != 1 {
		t.Errorf("first epoch = %d, want 1", n)
	}
	if got := h.EpochCount(0); got != 2 {
		t.Errorf("retired count[0] = %d, want 2", got)
	}
	if got := h.EpochCount(2 * units.MiB.Bytes()); got != 1 {
		t.Errorf("retired count[1] = %d, want 1", got)
	}
	if got := h.cur[0].Load(); got != 0 {
		t.Errorf("current window not reset: %d", got)
	}
	// A quiet epoch retires to zero.
	h.AdvanceEpoch()
	if got := h.EpochCount(0); got != 0 {
		t.Errorf("count after quiet epoch = %d, want 0", got)
	}
	if h.epochs != 2 {
		t.Errorf("epochs = %d", h.epochs)
	}
}

func TestHeatSpanningTouch(t *testing.T) {
	var s Stats
	h, err := s.EnableHeat(8*units.MiB, 2*units.MiB.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// A transfer crossing a region boundary counts in both regions.
	h.touch(2*units.MiB.Bytes()-32, 64)
	h.AdvanceEpoch()
	if a, b := h.EpochCount(0), h.EpochCount(2*units.MiB.Bytes()); a != 1 || b != 1 {
		t.Errorf("boundary touch counted %d/%d, want 1/1", a, b)
	}
	// Out-of-range touches are dropped, not panics.
	h.touch(-1, 64)
	h.touch(1<<40, 64)
	if h.EpochCount(-1) != 0 || h.EpochCount(1<<40) != 0 {
		t.Error("out-of-range reads not zero")
	}
}

func TestEnableHeatIdempotent(t *testing.T) {
	var s Stats
	if s.heat.Load() != nil {
		t.Fatal("heat enabled before EnableHeat")
	}
	s.TouchHeat(0, 64) // no-op while disabled
	h1, err := s.EnableHeat(4*units.MiB, 2*units.MiB.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	h2, err := s.EnableHeat(4*units.MiB, 2*units.MiB.Bytes())
	if err != nil || h2 != h1 {
		t.Errorf("re-enable returned %p (%v), want the original map", h2, err)
	}
	if _, err := s.EnableHeat(4*units.MiB, units.MiB.Bytes()); err == nil {
		t.Error("granule mismatch accepted")
	}
	if _, err := s.EnableHeat(4*units.MiB, 0); err == nil {
		t.Error("zero granule accepted")
	}
}

// TestDeviceAccessFeedsHeat: every ReadAt/WriteAt a device serves lands
// in the heat map — observation at the media, whatever path delivered
// the access.
func TestDeviceAccessFeedsHeat(t *testing.T) {
	d, err := NewDRAM(DRAMConfig{Name: "heat-dimm", Rate: 4800, Channels: 1, CapacityPerChannel: 8 * units.MiB})
	if err != nil {
		t.Fatal(err)
	}
	h, err := d.Stats().EnableHeat(d.Capacity(), 2*units.MiB.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if err := d.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadAt(buf, 2*units.MiB.Bytes()); err != nil {
		t.Fatal(err)
	}
	h.AdvanceEpoch()
	if got := h.EpochCount(0); got != 2 {
		t.Errorf("region 0 heat = %d, want 2", got)
	}
	if got := h.EpochCount(2 * units.MiB.Bytes()); got != 1 {
		t.Errorf("region 1 heat = %d, want 1", got)
	}
}

// TestHeatConcurrent: the hot path (Touch) races AdvanceEpoch and the
// readers without losing counts overall.
func TestHeatConcurrent(t *testing.T) {
	var s Stats
	h, err := s.EnableHeat(4*units.MiB, 2*units.MiB.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.touch(0, 64)
			}
		}()
	}
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				h.AdvanceEpoch()
				h.EpochCount(0)
				h.cur[0].Load()
			}
		}
	}()
	wg.Wait()
	close(stop)
	h.AdvanceEpoch()
	// Every touch landed in exactly one retired window; the final
	// total is split across epochs but conserved. Re-sum by touching
	// nothing more: last window + what previous epochs retired is not
	// directly observable, so just assert the final retire did not
	// over-count.
	if got := h.EpochCount(0); got > 4*perWorker {
		t.Errorf("over-counted: %d touches retired, only %d issued", got, 4*perWorker)
	}
}
