package perf

import (
	"cxlpmem/internal/topology"
	"cxlpmem/internal/units"
)

// Loaded latency. The unloaded numbers in topology (95/205/345 ns) hold
// only while the target device has headroom; as a stream approaches the
// device's sustainable rate, queueing delay grows. We model it with the
// standard M/M/1-shaped inflation L = L0 / (1 - ρ) with utilisation
// clamped below 1 — the same curve memory-latency checkers (e.g. Intel
// MLC) produce, and the reason Memory-Mode expansion slows everything
// down when over-committed.

// maxUtilisation clamps ρ so the model stays finite; beyond ~95% a real
// memory controller's queues dominate and latency explodes.
const maxUtilisation = 0.95

// loadedLatency returns the effective access latency from core c to
// node id when the node is already carrying `offered` of traffic with
// the given mix.
func (e *Engine) loadedLatency(c topology.Core, id topology.NodeID, offered units.Bandwidth, mix Mix) (units.Latency, error) {
	base, err := e.M.AccessLatency(c, id)
	if err != nil {
		return 0, err
	}
	node, err := e.M.Node(id)
	if err != nil {
		return 0, err
	}
	cap := node.EffectiveCap(mix.ReadFrac)
	if cap <= 0 {
		return base, nil
	}
	rho := float64(offered) / float64(cap)
	if rho < 0 {
		rho = 0
	}
	if rho > maxUtilisation {
		rho = maxUtilisation
	}
	return units.Nanoseconds(base.Ns() / (1 - rho)), nil
}

// LatencyBandwidthCurve sweeps offered load from 0 to the node's cap in
// `points` steps, returning (offered GB/s, loaded ns) pairs — the
// classic loaded-latency plot for one core/node pair.
type LatencyPoint struct {
	Offered units.Bandwidth
	Latency units.Latency
}

// LatencyBandwidthCurve computes the loaded-latency curve.
func (e *Engine) LatencyBandwidthCurve(c topology.Core, id topology.NodeID, mix Mix, points int) ([]LatencyPoint, error) {
	if points < 2 {
		points = 2
	}
	node, err := e.M.Node(id)
	if err != nil {
		return nil, err
	}
	cap := node.EffectiveCap(mix.ReadFrac)
	out := make([]LatencyPoint, 0, points)
	for i := 0; i < points; i++ {
		offered := units.Bandwidth(float64(cap) * float64(i) / float64(points-1))
		lat, err := e.loadedLatency(c, id, offered, mix)
		if err != nil {
			return nil, err
		}
		out = append(out, LatencyPoint{Offered: offered, Latency: lat})
	}
	return out, nil
}
