package topology

import (
	"fmt"

	"cxlpmem/internal/coherency"
	"cxlpmem/internal/cxl"
	"cxlpmem/internal/fpga"
	"cxlpmem/internal/units"
)

// Shared-HDM builders. Paper §2.2: "the same far memory segment can be
// made available to two distinct NUMA nodes", with coherency left to
// the applications. SetupShared builds that configuration for N hosts
// over one prototype card behind a CXL switch — and, with Coherent set,
// upgrades it to the CXL 3.0 scenario the paper could not run: the
// device owns a per-line MESI directory and recalls lines over the
// back-invalidate channel, so the hosts' caches stay coherent with no
// application discipline at all.

// SharedOptions configures SetupShared.
type SharedOptions struct {
	// Hosts is the number of NUMA nodes sharing the segment (default
	// 2, the paper's configuration; up to coherency.MaxCoherentHosts).
	Hosts int
	// SegmentSize is the shared payload size (default 1 MiB). Must be
	// a multiple of the 64-byte line.
	SegmentSize units.Size
	// Coherent builds the directory-based back-invalidate engine
	// instead of the paper's application-level (Peterson) discipline.
	// Required for Hosts > 2: Peterson's algorithm is two-host only.
	Coherent bool
	// CacheLines is each host's coherent-cache capacity in 64-byte
	// lines (default 256; Coherent only).
	CacheLines int
	// FPGA overrides the prototype card configuration.
	FPGA fpga.Options
}

// SharedHost is one NUMA node's attachment to the shared segment.
type SharedHost struct {
	// Index is the host ID (0..Hosts-1).
	Index int
	// VPPB is the host's virtual bridge name at the switch.
	VPPB string
	// Port is the host's trained root port.
	Port *cxl.RootPort
	// WindowBase is the HPA where this host's decoder maps the shared
	// device memory.
	WindowBase uint64
	// Accessor is the raw window data path (reads/writes at segment-
	// relative offsets).
	Accessor coherency.Accessor
	// Cache is the host's hardware-coherent cached view (Coherent
	// setups only).
	Cache *coherency.CoherentCache
	// Peterson is the host's application-coherency view (two-host
	// non-coherent setups only).
	Peterson *coherency.Host
}

// SharedHDM is the assembled shared-segment fabric.
type SharedHDM struct {
	// Card is the Type-3 prototype whose HDM all hosts share.
	Card *fpga.Prototype
	// Switch routes the hosts' bindings and, in coherent setups, the
	// back-invalidate snoops.
	Switch *cxl.Switch
	// Segment describes the shared region (segment-relative).
	Segment coherency.Segment
	// Directory is the device-owned MESI directory (Coherent only).
	Directory *coherency.Directory
	// Hosts lists the per-node attachments.
	Hosts []*SharedHost
}

// sharedWindowStride separates the per-host HPA windows; each host's
// decoder maps its window onto the same DPA range (the shared media).
const sharedWindowStride = uint64(0x10_0000_0000)

// SetupShared builds the paper's shared-HDM configuration for N hosts:
// one prototype card, one decoder + root port per host (each node's
// window aliases the same device memory), all bound through a switch.
// With Coherent set it additionally stands up the back-invalidate
// engine: a device-side directory, a write-back CoherentCache per host,
// and snoop routing through the switch.
func SetupShared(opts SharedOptions) (*SharedHDM, error) {
	hosts := opts.Hosts
	if hosts == 0 {
		hosts = 2
	}
	if hosts < 2 || hosts > coherency.MaxCoherentHosts {
		return nil, fmt.Errorf("topology: shared: %d hosts outside 2..%d", hosts, coherency.MaxCoherentHosts)
	}
	if !opts.Coherent && hosts != 2 {
		return nil, fmt.Errorf("topology: shared: application-level (Peterson) coherency is two-host only; set Coherent for %d hosts", hosts)
	}
	segSize := opts.SegmentSize
	if segSize == 0 {
		segSize = units.MiB
	}
	if segSize <= 0 || segSize%units.CacheLine != 0 {
		return nil, fmt.Errorf("topology: shared: segment size %d not a positive multiple of %d", segSize, units.CacheLine)
	}
	cacheLines := opts.CacheLines
	if cacheLines == 0 {
		cacheLines = 256
	}

	card, err := fpga.New(opts.FPGA)
	if err != nil {
		return nil, err
	}
	// Window size covers the payload plus the Peterson control block;
	// round to a 4 KiB page as an enumerator would.
	winSize := (uint64(segSize) + 64 + 4095) &^ 4095
	if winSize > uint64(card.HDM().Capacity().Bytes()) {
		return nil, fmt.Errorf("topology: shared: segment %v exceeds card HDM %v", segSize, card.HDM().Capacity())
	}
	if winSize > sharedWindowStride {
		return nil, fmt.Errorf("topology: shared: segment %v exceeds the %v per-host window stride", segSize, units.Size(sharedWindowStride))
	}

	sw := cxl.NewSwitch("shared-hdm")
	if err := sw.AddDownstream("gfam", card); err != nil {
		return nil, err
	}

	s := &SharedHDM{
		Card:    card,
		Switch:  sw,
		Segment: coherency.Segment{Base: 0, Size: int64(segSize)},
	}
	vppbs := make([]string, hosts)
	for i := 0; i < hosts; i++ {
		base := sharedWindowStride * uint64(i+1)
		if err := card.ProgramDecoder(&cxl.HDMDecoder{Base: base, Size: winSize}); err != nil {
			return nil, err
		}
		vppb := fmt.Sprintf("host%d", i)
		if err := sw.BindShared(vppb, "gfam"); err != nil {
			return nil, err
		}
		ep, ok := sw.EndpointFor(vppb)
		if !ok {
			return nil, fmt.Errorf("topology: shared: vPPB %s lost its binding", vppb)
		}
		rp := cxl.NewRootPort(fmt.Sprintf("rp-node%d", i), card.Link())
		if err := rp.Attach(ep); err != nil {
			return nil, err
		}
		vppbs[i] = vppb
		s.Hosts = append(s.Hosts, &SharedHost{
			Index:      i,
			VPPB:       vppb,
			Port:       rp,
			WindowBase: base,
			Accessor:   cxl.NewWindowIO(rp, base),
		})
	}

	if opts.Coherent {
		dir, err := coherency.NewDirectory(s.Segment, sw, vppbs)
		if err != nil {
			return nil, err
		}
		s.Directory = dir
		for _, h := range s.Hosts {
			cache, err := coherency.NewCoherentCache(h.Index, dir, h.Accessor, s.Segment, cacheLines)
			if err != nil {
				return nil, err
			}
			if err := sw.RegisterSnooper(h.VPPB, cache); err != nil {
				return nil, err
			}
			h.Cache = cache
		}
		return s, nil
	}

	// Paper configuration: two hosts, Peterson's algorithm over device
	// words, explicit flush/invalidate.
	h0, h1, err := coherency.NewPair(s.Hosts[0].Accessor, s.Hosts[1].Accessor, s.Segment)
	if err != nil {
		return nil, err
	}
	s.Hosts[0].Peterson, s.Hosts[1].Peterson = h0, h1
	return s, nil
}
