package fabric

import (
	"strings"
	"testing"

	"cxlpmem/internal/cxl"
	"cxlpmem/internal/memdev"
	"cxlpmem/internal/units"
)

func TestParseMemTypes(t *testing.T) {
	cases := []struct {
		in   string
		want MemTypes
		str  string
	}{
		{"", MemAny, "any"},
		{"dram", MemDRAM, "dram"},
		{"dram,cxl", MemDRAM | MemCXL, "dram,cxl"},
		{"cxl,pmem", MemCXL | MemPMem, "cxl,pmem"},
		{" DRAM , Pmem ", MemDRAM | MemPMem, "dram,pmem"},
		{"dcpmm", MemPMem, "pmem"},
	}
	for _, c := range cases {
		got, err := ParseMemTypes(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseMemTypes(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if got.String() != c.str {
			t.Errorf("(%q).String() = %q, want %q", c.in, got.String(), c.str)
		}
	}
	if _, err := ParseMemTypes("dram,flash"); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestMemTypesAllows(t *testing.T) {
	if !MemAny.allows(memdev.KindDCPMM) || !MemAny.allows(memdev.KindDRAM) {
		t.Error("zero mask must allow everything")
	}
	m := MemDRAM | MemCXL
	if !m.allows(memdev.KindDRAM) || !m.allows(memdev.KindCXLHDM) || m.allows(memdev.KindDCPMM) {
		t.Errorf("dram,cxl mask misclassifies kinds")
	}
}

// addPMemPool registers a DCPMM-backed pool on the manager.
func addPMemPool(t *testing.T, m *Manager, name string, size units.Size) {
	t.Helper()
	media, err := memdev.NewDCPMM(memdev.DCPMMConfig{Name: name + "-media", Modules: 1, Capacity: size})
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
}

// TestGrantHonoursMemTypeMask: a tenant restricted to pmem draws from
// the DCPMM pool even though the (first-registered) DRAM pool has free
// capacity, and a dram-only tenant fails once the DRAM pool is
// exhausted rather than silently landing on pmem.
func TestGrantHonoursMemTypeMask(t *testing.T) {
	m := testFabric(t) // 16 MiB DRAM primary pool
	addPMemPool(t, m, "pmem-pool", 16*units.MiB)

	pm, err := m.AddTenant("pmem-tenant", 8*units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetMemTypes("pmem-tenant", MemPMem); err != nil {
		t.Fatal(err)
	}
	if got := pm.MemTypes(); got != MemPMem {
		t.Fatalf("mask = %v, want pmem", got)
	}
	exts, err := m.Grant("pmem-tenant", 2*units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range exts {
		if e.Pool != "pmem-pool" {
			t.Errorf("pmem-masked grant landed on pool %s", e.Pool)
		}
	}

	// A dram,cxl tenant cannot overflow onto the pmem pool.
	if _, err := m.AddTenant("dram-tenant", 32*units.MiB); err != nil {
		t.Fatal(err)
	}
	mask, err := ParseMemTypes("dram,cxl")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetMemTypes("dram-tenant", mask); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Grant("dram-tenant", 8*units.MiB); err != nil {
		t.Fatal(err) // fits in the 16 MiB DRAM pool
	}
	_, err = m.Grant("dram-tenant", 12*units.MiB) // DRAM pool exhausted
	if err == nil {
		t.Fatal("grant exceeding allowed pools accepted")
	}
	if !strings.Contains(err.Error(), "dram,cxl") {
		t.Errorf("exhaustion error %q does not name the mask", err)
	}

	// An unmasked tenant still spills across pools freely.
	if _, err := m.AddTenant("any-tenant", 16*units.MiB); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Grant("any-tenant", 12*units.MiB); err != nil {
		t.Fatal(err)
	}

	if err := m.SetMemTypes("ghost", MemPMem); err == nil {
		t.Error("mask on unknown tenant accepted")
	}
}

// TestEvacuationHonoursMemTypeMask: re-homing a pmem-masked tenant's
// extents during pool evacuation must not land them on a DRAM pool.
func TestEvacuationHonoursMemTypeMask(t *testing.T) {
	m := testFabric(t)
	addPMemPool(t, m, "pmem-a", 16*units.MiB)
	addPMemPool(t, m, "pmem-b", 16*units.MiB)
	tn, err := m.AddTenant("pm", 8*units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetMemTypes("pm", MemPMem); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Grant("pm", 2*units.MiB); err != nil {
		t.Fatal(err)
	}
	accept(t, tn)
	if _, err := m.EvacuatePool("pmem-a"); err != nil {
		t.Fatal(err)
	}
	exts, err := m.Extents(tn.Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range exts {
		if e.Pool != "pmem-b" {
			t.Errorf("evacuated extent landed on %s, want pmem-b", e.Pool)
		}
	}
}
