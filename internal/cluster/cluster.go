// Package cluster implements the paper's first future-work item (§6):
// "explore the scalability of CXL-enabled memory in larger HPC
// clusters, with more than one node accessing the CXL memory." It
// assembles k single-socket hosts behind a CXL switch whose downstream
// is one memory appliance. The fabric manager grants each host its
// share of the appliance as dynamic-capacity extents (see Elastic);
// Scalability models the bandwidth each host sees as the appliance's
// shared pipeline saturates, and RunParallel measures it on the
// simulator.
package cluster

import (
	"fmt"

	"cxlpmem/internal/cxl"
	"cxlpmem/internal/memdev"
	"cxlpmem/internal/numa"
	"cxlpmem/internal/perf"
	"cxlpmem/internal/stream"
	"cxlpmem/internal/topology"
	"cxlpmem/internal/units"
)

// ApplianceIPCapGBps is the shared device-pipeline throughput of the
// memory appliance, the same implementation bound as the paper's
// prototype card (one CXL IP slice worth per two channels; the
// appliance ships four slices).
const ApplianceIPCapGBps = 33.2

// hostMachine builds one single-socket SPR host whose node 1 is its
// pooled capacity: the tenant device behind its root port.
func hostMachine(i int, pooled memdev.Device, rp *cxl.RootPort, w cxl.MemWindow) (*topology.Machine, error) {
	m := &topology.Machine{Name: fmt.Sprintf("pool-host%d", i)}
	model := topology.SPRModel
	m.Sockets = []*topology.Socket{{ID: 0, Model: model}}
	for c := 0; c < model.CoresPerSocket; c++ {
		m.Sockets[0].Cores = append(m.Sockets[0].Cores, topology.Core{ID: topology.CoreID(c), Socket: 0})
	}
	local, err := memdev.NewDRAM(memdev.DRAMConfig{
		Name:               fmt.Sprintf("ddr5-h%d", i),
		Rate:               4800,
		Channels:           1,
		CapacityPerChannel: 64 * units.GiB,
		IdleLatency:        units.Nanoseconds(95),
		Efficiency:         0.62,
	})
	if err != nil {
		return nil, err
	}
	m.Nodes = []*topology.Node{
		{ID: 0, Kind: topology.NodeDRAM, Device: local, HomeSocket: 0},
		{
			ID: 1, Kind: topology.NodeCXL, Device: pooled,
			HomeSocket: -1, AttachSocket: 0,
			// Each host's port can use the full appliance pipeline
			// when alone; sharing is applied by the cluster model.
			IPCap: units.GBps(ApplianceIPCapGBps),
			Port:  rp, Window: w,
		},
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// ScalePoint is one row of the scale-out experiment.
type ScalePoint struct {
	Hosts     int
	PerHost   units.Bandwidth
	Aggregate units.Bandwidth
}

// Scalability models 1..len(Hosts) hosts streaming Triad against their
// pooled capacity with threadsPerHost threads each. Every host's
// unconstrained rate comes from its own engine; the appliance pipeline
// is then shared — demand beyond ApplianceIPCapGBps is split evenly
// (the switch arbitrates round-robin between vPPBs).
func (e *Elastic) Scalability(threadsPerHost int) ([]ScalePoint, error) {
	var out []ScalePoint
	mix := stream.Triad.Mix()
	var solo float64
	for i, h := range e.Hosts {
		m, err := hostMachine(i, h.Tenant.Device(), h.Port, h.Window)
		if err != nil {
			return nil, err
		}
		cores, err := numa.PlaceOnSocket(m, 0, threadsPerHost)
		if err != nil {
			return nil, err
		}
		r, err := perf.New(m).StreamBandwidth(cores, 1, mix, perf.MemoryMode)
		if err != nil {
			return nil, err
		}
		solo += r.Total.GBps()
		agg := min(solo, ApplianceIPCapGBps*mix.Factor)
		k := i + 1
		out = append(out, ScalePoint{
			Hosts:     k,
			PerHost:   units.GBps(agg / float64(k)),
			Aggregate: units.GBps(agg),
		})
	}
	return out, nil
}
