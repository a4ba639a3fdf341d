package main

import (
	"fmt"

	"cxlpmem/internal/core"
	"cxlpmem/internal/cxl"
	"cxlpmem/internal/fpga"
	"cxlpmem/internal/memdev"
	"cxlpmem/internal/pmem"
	"cxlpmem/internal/pmemfs"
	"cxlpmem/internal/topology"
)

// env is one assembled Setup #1 machine and the mount its pools live
// on. Untraced, pools go through core.Runtime's own CreatePool and
// OpenPool. Traced, the benchmark builds the same mount over the node's
// data path with its span wrappers at the pmem.Region, pmemfs.Accessor
// and cxl.MemIO seams.
type env struct {
	rt   *core.Runtime
	node *topology.Node
	// legs are the Type-3 endpoints behind node.Ports, in leg order.
	legs []*cxl.Type3Device
	mnt  *pmemfs.Mount
	tr   *tracer
}

// newEnv assembles Setup #1 with the paper's card on each of ways
// interleave legs (1 is the paper's single card).
func newEnv(ways int, tr *tracer) (*env, error) {
	rt, err := core.NewSetup1(topology.Setup1Options{InterleaveWays: ways})
	if err != nil {
		return nil, err
	}
	node, ok := rt.CXLNode()
	if !ok {
		return nil, fmt.Errorf("bench: setup #1 has no CXL node")
	}
	e := &env{rt: rt, node: node, tr: tr}
	for i, rp := range node.Ports {
		card, ok := rp.Endpoint().(*fpga.Prototype)
		if !ok {
			e.close()
			return nil, fmt.Errorf("bench: leg %d endpoint is %T, not the FPGA prototype", i, rp.Endpoint())
		}
		e.legs = append(e.legs, card.Type3Device)
	}
	if tr == nil {
		e.mnt, err = rt.MountFor(node.ID)
	} else {
		var inner cxl.MemIO = node.Port
		if node.Stripe != nil {
			inner = node.Stripe
		}
		acc := &tracedAccessor{io: cxl.NewWindowIO(&tracedMemIO{MemIO: inner, tr: tr}, node.Window.Base), tr: tr}
		e.mnt, err = pmemfs.NewMount(fmt.Sprintf("/mnt/pmem%d", node.ID), acc, int64(node.Window.Size), node.Persistent())
	}
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// close stops the interleave set's leg workers.
func (e *env) close() {
	if e.node.Stripe != nil {
		e.node.Stripe.Close()
	}
}

func (e *env) createPool(name, layout string, size int64) (*pmem.Pool, error) {
	if e.tr == nil {
		return e.rt.CreatePool(e.node.ID, name, layout, size)
	}
	f, err := e.mnt.Create(name, size)
	if err != nil {
		return nil, err
	}
	return pmem.Create(&tracedRegion{File: f, dev: e.node.Device, tr: e.tr}, layout)
}

// openPool reopens a pool, running recovery — Runtime.OpenPool, or its
// traced equivalent.
func (e *env) openPool(name, layout string) (*pmem.Pool, error) {
	if e.tr == nil {
		return e.rt.OpenPool(e.node.ID, name, layout)
	}
	f, err := e.mnt.Open(name)
	if err != nil {
		return nil, err
	}
	return pmem.Open(&tracedRegion{File: f, dev: e.node.Device, tr: e.tr}, layout)
}

// mediaAt resolves a node-relative byte offset to the leg media and
// device physical address that hold it.
func (e *env) mediaAt(off int64) (memdev.Device, int64, error) {
	hpa := e.node.Window.Base + uint64(off)
	for _, d := range e.legs {
		for _, dec := range d.Decoders() {
			if dpa, ok := dec.Decode(hpa); ok {
				return d.Media(), int64(dpa), nil
			}
		}
	}
	return nil, 0, fmt.Errorf("bench: node offset %#x maps to no leg", off)
}

// Counter indices: one snapshot of every layer counter below the pool,
// summed over legs, plus each leg's media traffic.
const (
	cDescriptors = iota
	cDoorbells
	cRetries
	cTimeouts
	cLineReads
	cLineWrites
	cPartialWrites
	cReadBursts
	cWriteBursts
	cBurstLines
	cLineFallbacks
	cMediaRead
	cMediaWritten
	cLegBytes   // cxl.MaxInterleaveWays entries, media bytes moved per leg
	numCounters = cLegBytes + cxl.MaxInterleaveWays
)

type counters [numCounters]int64

func (e *env) counters() counters {
	var c counters
	for i, rp := range e.node.Ports {
		ps := rp.Stats()
		c[cDescriptors] += ps.Issued
		c[cDoorbells] += ps.Doorbells
		c[cRetries] += ps.Retries
		c[cTimeouts] += ps.Timeouts
		ds := e.legs[i].Stats()
		c[cLineReads] += ds.Reads.Load()
		c[cLineWrites] += ds.Writes.Load()
		c[cPartialWrites] += ds.PartialWrites.Load()
		c[cReadBursts] += ds.ReadBursts.Load()
		c[cWriteBursts] += ds.WriteBursts.Load()
		c[cBurstLines] += ds.BurstLines.Load()
		c[cLineFallbacks] += ds.LineFallbacks.Load()
		_, _, rd, wr := e.legs[i].Media().Stats().Snapshot()
		c[cMediaRead] += rd
		c[cMediaWritten] += wr
		c[cLegBytes+i] = rd + wr
	}
	return c
}

// addDelta accumulates after − before into c.
func (c *counters) addDelta(after, before counters) {
	for i := range c {
		c[i] += after[i] - before[i]
	}
}
