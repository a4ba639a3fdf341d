package fabric

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"cxlpmem/internal/cxl"
	"cxlpmem/internal/memdev"
	"cxlpmem/internal/telemetry"
	"cxlpmem/internal/units"
)

// sparePool builds and registers an extra MLD on the manager.
func sparePool(t *testing.T, m *Manager, name string, size units.Size) *cxl.MLD {
	t.Helper()
	media, err := memdev.NewDRAM(memdev.DRAMConfig{
		Name: name + "-dram", Rate: 3200, Channels: 1,
		CapacityPerChannel: size,
		BatteryBacked:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	mld, err := cxl.NewMLD(name, media)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddPool(mld); err != nil {
		t.Fatal(err)
	}
	return mld
}

func TestEvacuatePoolMovesExtentsUnderTraffic(t *testing.T) {
	m := testFabric(t)
	tn, err := m.AddTenant("evac-host", 4*units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Grant("evac-host", 2*units.MiB); err != nil {
		t.Fatal(err)
	}
	accept(t, tn)

	// Seed a recognisable pattern through the tenant device.
	dev := tn.Device()
	want := make([]byte, 2*units.MiB)
	for i := range want {
		want[i] = byte(i*7 + 3)
	}
	if err := dev.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}

	sparePool(t, m, "spare", 16*units.MiB)

	// Foreground traffic mutates a private window of the extent during
	// the move; a deterministic mirror tracks what must be readable.
	const fgBase = 1 << 20
	const fgLen = 64 * 1024
	var stopFg atomic.Bool
	started := make(chan struct{})
	var startedOnce sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, fgLen)
		got := make([]byte, fgLen)
		for round := byte(1); !stopFg.Load(); round++ {
			for i := range buf {
				buf[i] = round ^ byte(i)
			}
			if err := dev.WriteAt(buf, fgBase); err != nil {
				t.Errorf("foreground write: %v", err)
				return
			}
			// Single writer: its own write must be fully visible, before,
			// during and after the migration.
			if err := dev.ReadAt(got, fgBase); err != nil {
				t.Errorf("foreground read: %v", err)
				return
			}
			if !bytes.Equal(got, buf) {
				t.Errorf("foreground round %d read back torn", round)
				return
			}
			startedOnce.Do(func() { close(started) })
		}
	}()
	<-started

	moved, err := m.EvacuatePool(m.mld.Name())
	if err != nil {
		t.Fatalf("EvacuatePool: %v (moved %d)", err, moved)
	}
	if moved == 0 {
		t.Fatal("EvacuatePool moved nothing")
	}
	stopFg.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Every extent must now live on the spare, the primary pool must be
	// fully free, and its media scrubbed to zero where the extents were.
	exts, err := m.Extents("evac-host")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range exts {
		if e.Pool != "spare" {
			t.Fatalf("extent %v still on pool %s", e, e.Pool)
		}
	}
	if free := m.mld.Remaining(); free != m.mld.Media().Capacity() {
		t.Fatalf("source pool has %v free of %v after evacuation", free, m.mld.Media().Capacity())
	}
	if m.poolHealthy(m.mld.Name()) {
		t.Fatal("evacuated pool still marked healthy")
	}

	// Full readback: the static region must be byte-identical; the
	// foreground window must hold a self-consistent round pattern.
	got := make([]byte, len(want))
	if err := dev.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:fgBase], want[:fgBase]) {
		t.Fatal("static prefix corrupted by evacuation")
	}
	if !bytes.Equal(got[fgBase+fgLen:], want[fgBase+fgLen:]) {
		t.Fatal("static suffix corrupted by evacuation")
	}
	fg := got[fgBase : fgBase+fgLen]
	round := fg[0] // buf[0] = round ^ 0
	for i, b := range fg {
		if b != round^byte(i) {
			t.Fatalf("foreground window torn at %d: %#x, want round %#x pattern", i, b, round)
		}
	}

	// The tenant is not stuck: it can still grant (now from the spare)
	// and the moved bytes remain writable.
	if _, err := m.Grant("evac-host", 64*units.KiB); err != nil {
		t.Fatalf("post-evacuation grant: %v", err)
	}
	accept(t, tn)
	if err := dev.WriteAt([]byte{0xEE}, 0); err != nil {
		t.Fatalf("post-evacuation write: %v", err)
	}
}

func TestEvacuateWithoutSpareFailsCleanly(t *testing.T) {
	m := testFabric(t)
	tn, err := m.AddTenant("lonely", 4*units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Grant("lonely", 256*units.KiB); err != nil {
		t.Fatal(err)
	}
	accept(t, tn)
	if _, err := m.EvacuatePool(m.mld.Name()); err == nil {
		t.Fatal("evacuation with no healthy pool succeeded")
	}
	// The data survives the failed attempt and the tenant still works.
	if err := tn.Device().WriteAt([]byte{1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3)
	if err := tn.Device().ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("readback %v", got)
	}
	// Recovery: add a spare and finish the drain.
	sparePool(t, m, "late-spare", 16*units.MiB)
	if _, err := m.EvacuatePool(m.mld.Name()); err != nil {
		t.Fatalf("evacuation after adding spare: %v", err)
	}
	exts, err := m.Extents("lonely")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range exts {
		if e.Pool != "late-spare" {
			t.Fatalf("extent %v not re-homed", e)
		}
	}
}

func TestTenantCommittedRanges(t *testing.T) {
	m := testFabric(t)
	tn, err := m.AddTenant("ranger", 4*units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Grant("ranger", 192*units.KiB); err != nil {
		t.Fatal(err)
	}
	accept(t, tn)
	rl, ok := tn.Device().(memdev.RangeLister)
	if !ok {
		t.Fatal("tenant device does not implement RangeLister")
	}
	var total uint64
	for _, r := range rl.Committed() {
		total += r.Size
	}
	if total != uint64(192*units.KiB) {
		t.Fatalf("committed %d bytes, want %d", total, 192*units.KiB)
	}
}

// TestEvacuateMixedExtentStates drains a pool holding every extent
// state at once: an active extent migrates with its bytes, a pending
// (never-accepted) grant is re-reserved on the spare without a copy,
// and a revoked tombstone — whose media was already scrubbed and freed
// by the forced reclaim — is skipped entirely.
func TestEvacuateMixedExtentStates(t *testing.T) {
	m := testFabric(t)
	if _, err := m.EvacuatePool("no-such-pool"); err == nil {
		t.Fatal("evacuating an unknown pool succeeded")
	}

	tn, err := m.AddTenant("mixed", 4*units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Grant("mixed", 256*units.KiB); err != nil {
		t.Fatal(err)
	}
	accept(t, tn) // active
	if _, err := m.Grant("mixed", 256*units.KiB); err != nil {
		t.Fatal(err)
	}
	// Second grant stays pending: the tenant never answers the event.

	victim, err := m.AddTenant("victim", 4*units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Grant("victim", 256*units.KiB); err != nil {
		t.Fatal(err)
	}
	accept(t, victim)
	if _, err := m.ForceReclaim("victim"); err != nil {
		t.Fatal(err)
	}
	// The revoked tombstone stays until the tenant acknowledges.

	want := []byte{0xC4, 0x11, 0x7e}
	if err := tn.Device().WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}

	sparePool(t, m, "spare", 16*units.MiB)
	moved, err := m.EvacuatePool(m.mld.Name())
	if err != nil {
		t.Fatal(err)
	}
	if moved != 2 { // active + pending; the tombstone references no media
		t.Fatalf("moved %d extents, want 2", moved)
	}
	exts, err := m.Extents("mixed")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range exts {
		if e.Pool != "spare" {
			t.Fatalf("extent %+v not re-homed onto the spare", e)
		}
	}
	got := make([]byte, len(want))
	if err := tn.Device().ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("active extent bytes %v after mixed-state drain, want %v", got, want)
	}
}

// errMediaFault is the injected failure of flakyMedia.
var errMediaFault = errors.New("injected media fault")

// flakyMedia wraps a pool's media and fails its reads or writes while
// the matching switch is set.
type flakyMedia struct {
	memdev.Device
	failReads, failWrites atomic.Bool
}

func (f *flakyMedia) ReadAt(p []byte, off int64) error {
	if f.failReads.Load() {
		return errMediaFault
	}
	return f.Device.ReadAt(p, off)
}

func (f *flakyMedia) WriteAt(p []byte, off int64) error {
	if f.failWrites.Load() {
		return errMediaFault
	}
	return f.Device.WriteAt(p, off)
}

// flakyPool builds an MLD over flaky DRAM of the given size.
func flakyPool(t *testing.T, name string, size units.Size) (*cxl.MLD, *flakyMedia) {
	t.Helper()
	dram, err := memdev.NewDRAM(memdev.DRAMConfig{
		Name: name + "-dram", Rate: 3200, Channels: 1,
		CapacityPerChannel: size,
		BatteryBacked:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	media := &flakyMedia{Device: dram}
	mld, err := cxl.NewMLD(name, media)
	if err != nil {
		t.Fatal(err)
	}
	return mld, media
}

// TestEvacuateMediaFaultLeavesExtentHome fails one side of an extent's
// copy: EvacuatePool must return the fault and leave the extent on the
// source pool, thawed, with the tenant's bytes intact and the spare's
// reservation rolled back. Once the fault clears, a retry re-homes it.
func TestEvacuateMediaFaultLeavesExtentHome(t *testing.T) {
	for _, name := range []string{"source-read", "spare-write"} {
		t.Run(name, func(t *testing.T) {
			srcMLD, src := flakyPool(t, "pool", 4*units.MiB)
			m, err := New(cxl.NewSwitch("flaky-sw"), srcMLD, Config{Granule: 64 * units.KiB})
			if err != nil {
				t.Fatal(err)
			}
			spareMLD, spare := flakyPool(t, "spare", 4*units.MiB)
			if err := m.AddPool(spareMLD); err != nil {
				t.Fatal(err)
			}
			reg := telemetry.NewRegistry()
			m.RegisterMetrics(reg)
			metric := func(name, labels string) float64 {
				for _, s := range reg.Gather() {
					if s.Name == name && s.Labels == labels {
						return s.Value
					}
				}
				t.Fatalf("no sample %s%s", name, labels)
				return 0
			}
			tn, err := m.AddTenant("host", 2*units.MiB)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Grant("host", 256*units.KiB); err != nil {
				t.Fatal(err)
			}
			accept(t, tn)
			want := make([]byte, 256*units.KiB)
			for i := range want {
				want[i] = byte(i*5 + 1)
			}
			if err := tn.Device().WriteAt(want, 0); err != nil {
				t.Fatal(err)
			}

			fault := &spare.failWrites
			if name == "source-read" {
				fault = &src.failReads
			}
			fault.Store(true)
			if moved, err := m.EvacuatePool("pool"); !errors.Is(err, errMediaFault) || moved != 0 {
				t.Fatalf("EvacuatePool = %d, %v; want 0, the media fault", moved, err)
			}
			fault.Store(false)
			exts, err := m.Extents("host")
			if err != nil {
				t.Fatal(err)
			}
			if len(exts) != 1 || exts[0].Pool != "pool" || exts[0].frozen {
				t.Fatalf("extents after failed move = %+v, want one thawed extent on pool", exts)
			}
			if free := spareMLD.Remaining(); free != spareMLD.Media().Capacity() {
				t.Errorf("spare holds %v free of %v after the failed move", free, spareMLD.Media().Capacity())
			}
			if n := metric("fabric_evacuated_extents_total", ""); n != 0 {
				t.Errorf("failed move counted %v evacuated extents", n)
			}
			got := make([]byte, len(want))
			if err := tn.Device().ReadAt(got, 0); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("tenant bytes after failed move: err %v, intact %v", err, bytes.Equal(got, want))
			}
			// Thawed: a write lands instead of backing off forever.
			want[0] ^= 0xFF
			if err := tn.Device().WriteAt(want[:1], 0); err != nil {
				t.Fatal(err)
			}

			if moved, err := m.EvacuatePool("pool"); err != nil || moved != 1 {
				t.Fatalf("retry after the fault cleared = %d, %v; want 1 moved", moved, err)
			}
			if exts, _ := m.Extents("host"); exts[0].Pool != "spare" {
				t.Fatalf("extent %+v not re-homed onto the spare", exts[0])
			}
			if err := tn.Device().ReadAt(got, 0); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("tenant bytes after the move: err %v, intact %v", err, bytes.Equal(got, want))
			}
			if n, b := metric("fabric_evacuated_extents_total", ""), metric("fabric_evacuated_bytes_total", ""); n != 1 || b != float64(len(want)) {
				t.Errorf("evacuation counters = %v extents, %v bytes; want 1, %d", n, b, len(want))
			}
			if metric("fabric_pool_healthy", telemetry.Labels("pool", "pool")) != 0 || metric("fabric_pool_healthy", telemetry.Labels("pool", "spare")) != 1 {
				t.Error("pool health gauges do not show the drained source")
			}
		})
	}
}

// TestEvacuateSkipsTooShortSpare offers a spare smaller than the
// extent first: the short reservation is rolled back and the move lands
// on the next pool that holds the extent whole.
func TestEvacuateSkipsTooShortSpare(t *testing.T) {
	m := testFabric(t)
	tn, err := m.AddTenant("host", 2*units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Grant("host", 256*units.KiB); err != nil {
		t.Fatal(err)
	}
	accept(t, tn)
	small := sparePool(t, m, "small", 128*units.KiB)
	sparePool(t, m, "big", 4*units.MiB)

	if moved, err := m.EvacuatePool(m.mld.Name()); err != nil || moved != 1 {
		t.Fatalf("EvacuatePool = %d, %v; want 1 moved", moved, err)
	}
	if exts, _ := m.Extents("host"); exts[0].Pool != "big" {
		t.Fatalf("extent %+v landed on %s, want big", exts[0], exts[0].Pool)
	}
	if free := small.Remaining(); free != small.Media().Capacity() {
		t.Errorf("too-short spare holds %v free of %v: its reservation leaked", free, small.Media().Capacity())
	}
}
