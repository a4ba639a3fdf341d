package cluster

import (
	"bytes"
	"encoding/binary"
	"testing"

	"cxlpmem/internal/cxl"
	"cxlpmem/internal/ras"
	"cxlpmem/internal/units"
)

func injectTenantPoison(t *testing.T, e *Elastic, host int, lines int) uint64 {
	t.Helper()
	exts, err := e.Fabric.Extents(e.Hosts[host].Tenant.Name())
	if err != nil || len(exts) == 0 {
		t.Fatalf("host %d extents: %v", host, err)
	}
	mbox := e.Hosts[host].Tenant.Mailbox()
	for i := 0; i < lines; i++ {
		var dpa [8]byte
		binary.LittleEndian.PutUint64(dpa[:], exts[0].DPA+uint64(i)*4096)
		if _, status := mbox.Execute(cxl.OpInjectPoison, dpa[:]); status != cxl.MboxSuccess {
			t.Fatalf("inject poison %d: %v", i, status)
		}
	}
	return exts[0].DPA
}

// degraded evaluates every registered device and returns the ones the
// threshold policy left Degraded.
func degraded(t *testing.T, p *ras.Plane) []string {
	t.Helper()
	var out []string
	for _, name := range p.Devices() {
		st, err := p.Evaluate(name)
		if err != nil {
			t.Fatalf("evaluate %s: %v", name, err)
		}
		if st == ras.Degraded {
			out = append(out, name)
		}
	}
	return out
}

// TestEnableRASPatrolDegradesPoisonedTenant wires the plane over a live
// elastic pool and proves the division of labour the registration
// encodes: tenant windows are scrubbed through their root ports, latent
// poison patrol finds counts as correctable on that tenant alone, and
// the threshold policy degrades exactly the poisoned device.
func TestEnableRASPatrolDegradesPoisonedTenant(t *testing.T) {
	e := testElastic(t, 2)
	p, err := e.EnableRAS(ras.Thresholds{MaxCorrectable: 2, MaxUncorrectable: 1})
	if err != nil {
		t.Fatal(err)
	}
	devs := p.Devices()
	if len(devs) != 3 { // pool:appliance + 2 tenants
		t.Fatalf("registered devices = %v, want 3", devs)
	}
	for _, name := range devs {
		if _, err := p.ScrubPass(name); err != nil {
			t.Fatalf("baseline scrub %s: %v", name, err)
		}
	}
	if bad := degraded(t, p); len(bad) != 0 {
		t.Fatalf("healthy pool evaluated to %v", bad)
	}

	injectTenantPoison(t, e, 0, 2)
	if _, err := p.ScrubPass("tenant:host0"); err != nil {
		t.Fatal(err)
	}
	bad := degraded(t, p)
	if len(bad) != 1 || bad[0] != "tenant:host0" {
		t.Fatalf("degraded set = %v, want [tenant:host0]", bad)
	}
	h := p.Health("tenant:host0")
	if h.State != ras.Degraded || h.PoisonedLines != 2 || h.Counters.Correctable != 2 {
		t.Errorf("host0 health = %+v, want degraded with 2 correctable poisoned lines", h)
	}
	if st := p.Health("tenant:host1").State; st != ras.Healthy {
		t.Errorf("unpoisoned sibling state = %v", st)
	}
	if st := p.Health("pool:appliance").State; st != ras.Healthy {
		t.Errorf("appliance state = %v", st)
	}
}

// TestEvacuatePoolWithPlane drains the primary pool onto a hot-added
// spare while the plane tracks it through Evacuating to Offline, and
// the tenant's bytes survive the move through its own port.
func TestEvacuatePoolWithPlane(t *testing.T) {
	e := testElastic(t, 2)
	p, err := e.EnableRAS(ras.DefaultThresholds)
	if err != nil {
		t.Fatal(err)
	}
	primary := e.MLD.Name()

	// Without spare capacity the drain must fail cleanly and the plane
	// must roll the pool back to Healthy.
	if _, err := e.EvacuatePool(p, primary); err == nil {
		t.Fatal("evacuation without a spare pool succeeded")
	}
	if st := p.Health("pool:" + primary).State; st != ras.Healthy {
		t.Errorf("pool state after aborted evacuation = %v", st)
	}

	mld, err := e.AddSparePool("spare", 2*e.TotalPooled())
	if err != nil {
		t.Fatal(err)
	}
	if mld == nil || len(e.Fabric.Pools()) != 2 {
		t.Fatalf("pools after AddSparePool = %v", e.Fabric.Pools())
	}

	// Seed a tenant extent with a pattern that must survive the move.
	h := e.Hosts[0]
	dpa := injectTenantPoison(t, e, 0, 0) // just resolves the first extent's DPA
	in := make([]byte, 4096)
	for i := range in {
		in[i] = byte(i*7 + 3)
	}
	if err := h.Port.WriteBurst(h.Window.Base+dpa, in); err != nil {
		t.Fatal(err)
	}

	moved, err := e.EvacuatePool(p, primary)
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("evacuation moved no extents")
	}
	if st := p.Health("pool:" + primary).State; st != ras.Offline {
		t.Errorf("pool state after evacuation = %v, want offline", st)
	}

	out := make([]byte, len(in))
	if err := h.Port.ReadBurst(h.Window.Base+dpa, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in, out) {
		t.Error("tenant data corrupted by pool evacuation")
	}

	// The drained pool's bytes are free again on the spare side: a
	// fresh grant still works.
	if _, err := e.Grow(1, units.MiB); err != nil {
		t.Errorf("grow after evacuation: %v", err)
	}
}
