// Package cluster implements the paper's first future-work item (§6):
// "explore the scalability of CXL-enabled memory in larger HPC
// clusters, with more than one node accessing the CXL memory." It
// assembles k single-socket hosts behind a CXL 2.0 switch whose
// downstream is one memory appliance — a Multi-Logical Device carved
// into per-host partitions — and models the bandwidth each host sees as
// the appliance's shared pipeline saturates.
package cluster

import (
	"fmt"
	"sync"

	"cxlpmem/internal/cxl"
	"cxlpmem/internal/interconnect"
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

// Node is one compute host attached to the pool.
type Node struct {
	// Index of the host (0..k-1).
	Index int
	// Machine is the host topology: one SPR socket with local DDR5
	// (node 0) and its pooled CXL partition (node 1).
	Machine *topology.Machine
	// Engine models bandwidth on this host.
	Engine *perf.Engine
	// Port is the host's trained root port (link state and stats; data
	// traffic goes through IO).
	Port *cxl.RootPort
	// IO is the host's data path into the pool, in fabric HPA space.
	IO cxl.MemIO
	// Window is the enumerated HPA window of the host's partition.
	Window cxl.MemWindow
	// LD is the logical device carved for this host.
	LD *cxl.LogicalDevice
}

// Cluster is the assembled fabric.
type Cluster struct {
	Hosts  []*Node
	Switch *cxl.Switch
	MLD    *cxl.MLD
	// media is the appliance DRAM backing the MLD.
	media memdev.Device

	// scaleMu guards scaleCache, the memoised analytical Scalability
	// tables keyed by threadsPerHost (RunParallel consults the model
	// on every call; the fabric is immutable after New, so the table
	// never changes).
	scaleMu    sync.Mutex
	scaleCache map[int][]ScalePoint
}

// New assembles a cluster of k hosts, each receiving perHost bytes of
// pooled memory.
func New(k int, perHost units.Size) (*Cluster, error) {
	if k < 1 || k > 16 {
		return nil, fmt.Errorf("cluster: host count %d outside 1..16", k)
	}
	if perHost <= 0 || perHost%units.CacheLine != 0 {
		return nil, fmt.Errorf("cluster: invalid per-host capacity %d", perHost)
	}
	media, err := memdev.NewDRAM(memdev.DRAMConfig{
		Name:               "appliance-ddr4",
		Rate:               3200,
		Channels:           4,
		CapacityPerChannel: units.Size(int64(perHost) * int64(k) / 4),
		IdleLatency:        units.Nanoseconds(105),
		BatteryBacked:      true,
	})
	if err != nil {
		return nil, err
	}
	mld, err := cxl.NewMLD("appliance", media)
	if err != nil {
		return nil, err
	}
	sw := cxl.NewSwitch("pool-switch")
	c := &Cluster{Switch: sw, MLD: mld, media: media}

	for i := 0; i < k; i++ {
		ld, err := mld.Carve(fmt.Sprintf("ld-host%d", i), perHost)
		if err != nil {
			return nil, err
		}
		dsp := fmt.Sprintf("dsp%d", i)
		if err := sw.AddDownstream(dsp, ld); err != nil {
			return nil, err
		}
		vppb := fmt.Sprintf("host%d", i)
		if err := sw.Bind(vppb, dsp); err != nil {
			return nil, err
		}
		ep, ok := sw.EndpointFor(vppb)
		if !ok {
			return nil, fmt.Errorf("cluster: vPPB %s lost its binding", vppb)
		}
		link, err := interconnect.NewPCIe(fmt.Sprintf("pcie-h%d", i), interconnect.KindPCIe5, 16, units.Nanoseconds(290))
		if err != nil {
			return nil, err
		}
		rp := cxl.NewRootPort(fmt.Sprintf("rp-h%d", i), link)
		if err := rp.Attach(ep); err != nil {
			return nil, err
		}
		h, err := cxl.Enumerate(0, rp)
		if err != nil {
			return nil, err
		}
		if len(h.Windows) != 1 {
			return nil, fmt.Errorf("cluster: host %d enumerated %d windows", i, len(h.Windows))
		}
		m, err := hostMachine(i, ld, rp, h.Windows[0])
		if err != nil {
			return nil, err
		}
		c.Hosts = append(c.Hosts, &Node{
			Index:   i,
			Machine: m,
			Engine:  perf.New(m),
			Port:    rp,
			IO:      rp,
			Window:  h.Windows[0],
			LD:      ld,
		})
	}
	return c, nil
}

// hostMachine builds one single-socket SPR host whose node 1 is the
// pooled partition.
func hostMachine(i int, ld *cxl.LogicalDevice, rp *cxl.RootPort, w cxl.MemWindow) (*topology.Machine, error) {
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
			ID: 1, Kind: topology.NodeCXL, Device: ld.Media(),
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
// pooled partitions with threadsPerHost threads each. Every host's
// unconstrained rate comes from its own engine; the appliance pipeline
// is then shared — demand beyond ApplianceIPCapGBps is split evenly
// (the switch arbitrates round-robin between vPPBs).
func (c *Cluster) Scalability(threadsPerHost int) ([]ScalePoint, error) {
	var out []ScalePoint
	mix := stream.Triad.Mix()
	for k := 1; k <= len(c.Hosts); k++ {
		var solo float64
		for i := 0; i < k; i++ {
			h := c.Hosts[i]
			cores, err := numa.PlaceOnSocket(h.Machine, 0, threadsPerHost)
			if err != nil {
				return nil, err
			}
			r, err := h.Engine.StreamBandwidth(cores, 1, mix, perf.MemoryMode)
			if err != nil {
				return nil, err
			}
			solo += r.Total.GBps()
		}
		agg := solo
		if cap := ApplianceIPCapGBps * mix.Factor; agg > cap {
			agg = cap
		}
		out = append(out, ScalePoint{
			Hosts:     k,
			PerHost:   units.GBps(agg / float64(k)),
			Aggregate: units.GBps(agg),
		})
	}
	return out, nil
}

// Describe renders the fabric.
func (c *Cluster) Describe() string {
	s := fmt.Sprintf("CXL memory pool: %d host(s), appliance %s (%s media), switch %s\n",
		len(c.Hosts), c.media.Capacity(), c.media.Name(), c.Switch.Name())
	for _, h := range c.Hosts {
		base, size := h.LD.Partition()
		s += fmt.Sprintf("  host%d: window [%#x,%#x) -> partition [%#x,%#x)\n",
			h.Index, h.Window.Base, h.Window.Base+h.Window.Size, base, base+size)
	}
	return s
}
