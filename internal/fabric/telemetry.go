package fabric

import (
	"cxlpmem/internal/telemetry"
)

// RegisterMetrics exposes the fabric manager's control-plane state
// through the registry: cumulative grant/release/reclaim/evacuation
// counters (atomics, no lock on the gather path) plus point-in-time
// pool and per-tenant capacity gauges (which take the manager mutex —
// exposition is a cold path).
func (m *Manager) RegisterMetrics(reg *telemetry.Registry) {
	reg.RegisterCollector(func(e *telemetry.Emitter) {
		e.Counter("fabric_granted_extents_total", "", m.grantedExtents.Load())
		e.Counter("fabric_granted_bytes_total", "", m.grantedBytes.Load())
		e.Counter("fabric_released_extents_total", "", m.releasedExtents.Load())
		e.Counter("fabric_reclaimed_extents_total", "", m.reclaimedExtents.Load())
		e.Counter("fabric_evacuated_extents_total", "", m.evacuatedExtents.Load())
		e.Counter("fabric_evacuated_bytes_total", "", m.evacuatedBytes.Load())
		e.Gauge("fabric_pool_remaining_bytes", "", float64(m.Remaining()))
		for _, name := range m.Pools() {
			healthy := 0.0
			if m.poolHealthy(name) {
				healthy = 1
			}
			e.Gauge("fabric_pool_healthy", telemetry.Labels("pool", name), healthy)
		}
		for _, name := range m.tenantNames() {
			t, ok := m.tenant(name)
			if !ok {
				continue
			}
			labels := telemetry.Labels("tenant", name)
			e.Gauge("fabric_tenant_quota_bytes", labels, float64(t.quota))
			e.Gauge("fabric_tenant_active_bytes", labels, float64(t.Active()))
			r, w, rb, wb := t.Device().Stats().Snapshot()
			e.Counter("fabric_tenant_reads_total", labels, r)
			e.Counter("fabric_tenant_writes_total", labels, w)
			e.Counter("fabric_tenant_read_bytes_total", labels, rb)
			e.Counter("fabric_tenant_write_bytes_total", labels, wb)
		}
	})
}
