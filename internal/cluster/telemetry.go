package cluster

import (
	"fmt"

	"cxlpmem/internal/cxl"
	"cxlpmem/internal/ras"
	"cxlpmem/internal/telemetry"
)

// Telemetry wiring for the elastic pool: EnableTelemetry plugs every
// layer the cluster composes into one registry — per-port latency
// histograms, ring and link counters, fabric control-plane state, and
// flit capture (per-port flight recorders plus an always-on recorder on
// the switch's back-invalidate channel). The result is the fleet view
// `fabricctl top` and telemetry.Serve render.

// EnableTelemetry registers every host port and the fabric manager with
// reg and starts flit capture. Returns the snoop recorder watching the
// switch's back-invalidate channel; per-port recorders are reachable
// via each host's Port.FlightRecorder. Call once per registry.
func (e *Elastic) EnableTelemetry(reg *telemetry.Registry, opts cxl.TelemetryOptions) *telemetry.FlightRecorder {
	for _, h := range e.Hosts {
		h.Port.EnableTelemetry(reg, opts)
	}
	e.Fabric.RegisterMetrics(reg)
	snoops := telemetry.NewFlightRecorder(opts.RecorderSlots)
	cxl.RecordSnoops(e.Switch, snoops)
	return snoops
}

// AttachFlightRecorders hands each tenant port's flight recorder to the
// RAS plane (under the same "tenant:<name>" device names EnableRAS
// registers), so a Degraded or Evacuating transition automatically
// snapshots the wire history that led up to it into the health event.
// Ports without telemetry enabled are skipped.
func (e *Elastic) AttachFlightRecorders(p *ras.Plane) error {
	for _, h := range e.Hosts {
		rec := h.Port.FlightRecorder()
		if rec == nil {
			continue
		}
		if err := p.AttachFlightRecorder("tenant:"+h.Tenant.Name(), rec.Dump); err != nil {
			return fmt.Errorf("cluster: attaching recorder: %w", err)
		}
	}
	return nil
}
