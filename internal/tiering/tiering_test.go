package tiering

import (
	"bytes"
	"runtime"
	"testing"

	"cxlpmem/internal/topology"
)

func hierarchy(t *testing.T, fast, mid, cold int) (*Manager, *topology.Machine) {
	t.Helper()
	m, _, err := topology.Setup1(topology.Setup1Options{})
	if err != nil {
		t.Fatal(err)
	}
	mgr, hybrid, err := NewDDR5CXLDCPMMHierarchy(m, fast, mid, cold)
	if err != nil {
		t.Fatal(err)
	}
	return mgr, hybrid
}

func TestHierarchyBuilder(t *testing.T) {
	mgr, hybrid := hierarchy(t, 2, 4, 8)
	if len(mgr.Tiers()) != 3 {
		t.Fatalf("tiers = %d", len(mgr.Tiers()))
	}
	names := []string{"ddr5", "cxl", "dcpmm"}
	for i, tr := range mgr.Tiers() {
		if tr.Name != names[i] {
			t.Errorf("tier %d = %s, want %s", i, tr.Name, names[i])
		}
	}
	if len(hybrid.Nodes) != 4 {
		t.Errorf("hybrid machine nodes = %d, want 4", len(hybrid.Nodes))
	}
	// Latency ordering across the hybrid: ddr5 < cxl < dcpmm? DCPMM is
	// DIMM-attached (305ns idle) vs CXL 345ns — CXL is actually the
	// slower latency tier but the faster bandwidth tier; verify both
	// latencies exceed local DDR5.
	c0, err := hybrid.Core(0)
	if err != nil {
		t.Fatal(err)
	}
	l0, _ := hybrid.AccessLatency(c0, 0)
	l2, _ := hybrid.AccessLatency(c0, 2)
	l3, _ := hybrid.AccessLatency(c0, 3)
	if !(l0 < l2 && l0 < l3) {
		t.Errorf("latency ordering: ddr5 %v, cxl %v, dcpmm %v", l0, l2, l3)
	}
}

func TestAllocColdStartPlacement(t *testing.T) {
	mgr, _ := hierarchy(t, 2, 2, 2)
	var ids []PageID
	for i := 0; i < 6; i++ {
		id, err := mgr.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Cold start: new pages land in the far tier first and earn their
	// way up — the slowest tier fills before anything touches a faster
	// one.
	want := []int{2, 2, 1, 1, 0, 0}
	for i, id := range ids {
		tier, err := mgr.TierOf(id)
		if err != nil {
			t.Fatal(err)
		}
		if tier != want[i] {
			t.Errorf("page %d on tier %d, want %d", id, tier, want[i])
		}
	}
	if _, err := mgr.Alloc(); err == nil {
		t.Error("alloc past total capacity accepted")
	}
	// Freeing reopens capacity on the page's tier.
	if err := mgr.Free(ids[0]); err != nil {
		t.Fatal(err)
	}
	id, err := mgr.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if tier, _ := mgr.TierOf(id); tier != 2 {
		t.Errorf("freed far slot not reused: tier %d", tier)
	}
	if err := mgr.Free(99); err == nil {
		t.Error("free of unknown page accepted")
	}
}

// accesses reads a page's manager-path access count since the last
// epoch.
func accesses(t *testing.T, m *Manager, id PageID) uint64 {
	t.Helper()
	st, err := m.lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	return st.accesses.Load()
}

func TestReadWriteAndHeat(t *testing.T) {
	mgr, _ := hierarchy(t, 1, 1, 1)
	id, err := mgr.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	in := []byte("tiered page data")
	if err := mgr.Write(id, in, 100); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(in))
	if err := mgr.Read(id, out, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in, out) {
		t.Error("round trip mismatch")
	}
	if heat := accesses(t, mgr, id); heat != 2 {
		t.Errorf("heat = %d; want 2", heat)
	}
	if err := mgr.Read(id, out, PageSize-8); err == nil {
		t.Error("out-of-page read accepted")
	}
	if err := mgr.Write(id, out, -1); err == nil {
		t.Error("negative write accepted")
	}
	if _, err := mgr.TierOf(42); err == nil {
		t.Error("lookup of unknown page accepted")
	}
}

func TestManagerValidation(t *testing.T) {
	m, _, err := topology.Setup1(topology.Setup1Options{})
	if err != nil {
		t.Fatal(err)
	}
	n0, _ := m.Node(0)
	if _, err := NewManager(&Tier{Name: "one", Node: n0, CapacityPages: 1}); err == nil {
		t.Error("single tier accepted")
	}
	if _, err := NewManager(
		&Tier{Name: "a", Node: n0, CapacityPages: 1},
		&Tier{Name: "b", Node: nil, CapacityPages: 1},
	); err == nil {
		t.Error("nil node accepted")
	}
	if _, err := NewManager(
		&Tier{Name: "a", Node: n0, CapacityPages: 1},
		&Tier{Name: "b", Node: n0, CapacityPages: 1 << 30},
	); err == nil {
		t.Error("capacity beyond device accepted")
	}
}

// TestMigrationUsesPooledScratch guards the migration staging buffers:
// after warm-up, ping-ponging a page between tiers must not allocate a
// fresh 2 MiB buffer per move (the pool absorbs them), and the byte
// accounting must stay exact for both migrate and swap.
func TestMigrationUsesPooledScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	mgr, _ := hierarchy(t, 1, 2, 2)
	id, err := mgr.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: materialise the media pages on both sides and seed the
	// scratch pool (the swap path below needs two pooled buffers).
	if err := mgr.moveTo(id, 1); err != nil {
		t.Fatal(err)
	}
	if err := mgr.moveTo(id, 0); err != nil {
		t.Fatal(err)
	}
	id2, err := mgr.Alloc() // cold start: lands tier 2
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.swap(id, id2); err != nil {
		t.Fatal(err)
	}
	if err := mgr.swap(id, id2); err != nil {
		t.Fatal(err)
	}
	before := mgr.bytesMigrated
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	const moves = 8
	for i := 0; i < moves; i++ {
		cur, err := mgr.TierOf(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.moveTo(id, 1-cur); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&ms1)
	if got := mgr.bytesMigrated - before; got != moves*2*PageSize {
		t.Errorf("bytesMigrated advanced by %d, want %d", got, moves*2*PageSize)
	}
	// 8 moves stage 16 MiB through scratch; pooled staging must keep
	// total allocation far below one page-sized buffer per move.
	if grown := ms1.TotalAlloc - ms0.TotalAlloc; grown > PageSize {
		t.Errorf("%d bytes allocated across %d migrations, want < one page", grown, moves)
	}
	// The swap path shares the pool and keeps its 4-page accounting.
	t1, _ := mgr.TierOf(id)
	t2, _ := mgr.TierOf(id2)
	if t1 == t2 {
		t.Fatal("test setup: pages landed on the same tier")
	}
	before = mgr.bytesMigrated
	if err := mgr.swap(id, id2); err != nil {
		t.Fatal(err)
	}
	if got := mgr.bytesMigrated - before; got != 4*PageSize {
		t.Errorf("swap advanced bytesMigrated by %d, want %d", got, 4*PageSize)
	}
}
