package cluster

import (
	"strings"
	"testing"

	"cxlpmem/internal/cxl"
	"cxlpmem/internal/ras"
	"cxlpmem/internal/telemetry"
	"cxlpmem/internal/units"
)

func TestElasticTelemetry(t *testing.T) {
	e := testElastic(t, 2)
	reg := telemetry.NewRegistry()
	e.EnableTelemetry(reg, cxl.TelemetryOptions{SampleN: 1})

	if _, err := e.Drive(0, 2*units.MiB); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Drive(1, units.MiB); err != nil {
		t.Fatal(err)
	}

	samples := reg.Gather()
	var burstHist, portIssued, fabricGranted, tenantWrites bool
	for _, s := range samples {
		switch {
		case s.Name == "cxl_port_latency_ns" && strings.Contains(s.Labels, `op="burst"`):
			if s.Hist != nil && s.Hist.Count > 0 {
				burstHist = true
			}
		case s.Name == "cxl_port_issued_total" && s.Value > 0:
			portIssued = true
		case s.Name == "fabric_granted_bytes_total" && s.Value > 0:
			fabricGranted = true
		case s.Name == "fabric_tenant_write_bytes_total" && s.Value > 0:
			tenantWrites = true
		}
	}
	if !burstHist {
		t.Error("no populated burst latency histogram after Drive")
	}
	if !portIssued {
		t.Error("cxl_port_issued_total never moved")
	}
	if !fabricGranted {
		t.Error("fabric_granted_bytes_total never moved")
	}
	if !tenantWrites {
		t.Error("fabric_tenant_write_bytes_total never moved")
	}
	for _, h := range e.Hosts {
		if rec := h.Port.FlightRecorder(); rec == nil || rec.Recorded() == 0 {
			t.Errorf("host %d flight recorder empty", h.Index)
		}
	}
}

func TestElasticFlightDumpOnDegrade(t *testing.T) {
	e := testElastic(t, 1)
	reg := telemetry.NewRegistry()
	e.EnableTelemetry(reg, cxl.TelemetryOptions{SampleN: 1, RecorderSlots: 512})

	plane, err := e.EnableRAS(ras.Thresholds{MaxCorrectable: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AttachFlightRecorders(plane); err != nil {
		t.Fatal(err)
	}

	if _, err := e.Drive(0, units.MiB); err != nil {
		t.Fatal(err)
	}
	name := "tenant:" + e.Hosts[0].Tenant.Name()
	if err := plane.MarkEvacuating(name, "forced for dump test"); err != nil {
		t.Fatal(err)
	}

	var dumped []telemetry.FlitRecord
	for _, ev := range plane.Events() {
		if ev.Device == name && len(ev.Flits) > 0 {
			dumped = ev.Flits
		}
	}
	if len(dumped) == 0 {
		t.Fatal("health transition captured no flits")
	}
}
