package main

import (
	"fmt"

	"cxlpmem/internal/cxl"
	"cxlpmem/internal/memdev"
	"cxlpmem/internal/pmemfs"
)

// Ladder transfer kinds: one 64-byte line and one 4 KiB burst, each way,
// and a 4-byte partial write — a MemWrPtl, the shape of the undo log's
// lane words and of every unaligned head and tail.
const (
	k64Read = iota
	k64Write
	k4kRead
	k4kWrite
	k4Write
	numKinds
)

var kindNames = [numKinds]string{"64.read", "64.write", "4k.read", "4k.write", "4.write"}

// rungNames are the ladder's entry points, top of the stack first. A
// 1-way machine has no interleave rung.
var rungNames = []string{"pmemfs", "window", "interleave", "port", "device", "memdev"}

// rung is one entry point into the stack, with a call per transfer
// kind aimed at one of the ladder's slots.
type rung struct {
	name string
	call [numKinds]func(slot int) error
}

const (
	// ladderSlots rotate the ladder's target, round by round, over
	// distinct lines, virtual channels and media pages, as a workload's
	// ops do; one hot address would flatter every rung.
	ladderSlots = 16
	// ladderStride spaces the slots; a multiple of every interleave
	// stride (ways × granule), so each slot starts on leg 0.
	ladderStride = 68 << 10
)

// ladder holds per-rung call times in ns, by kind: the mean of the
// middle half of each rung's samples.
type ladder map[string][numKinds]float64

// ladderRungs enters the same bytes at every layer of e's node: a pmemfs
// file, the node's window data path, the interleave set (striped nodes),
// leg 0's root port, its Type-3 device and its media. The slots lie past
// every pool file, each on a granule leg 0 owns.
func ladderRungs(e *env) ([]rung, error) {
	node := e.node
	const align = 1 << 20
	base := (e.mnt.Size()-e.mnt.Free())&^(align-1) + 2*align
	lm, err := pmemfs.NewMount("/mnt/ladder", node.DataPath(), int64(node.Window.Size), node.Persistent())
	if err != nil {
		return nil, err
	}
	if _, err := lm.Create("pools", base); err != nil {
		return nil, err
	}
	lf, err := lm.Create("ladder", ladderSlots*ladderStride)
	if err != nil {
		return nil, err
	}
	var off, dpa [ladderSlots]int64
	var hpa [ladderSlots]uint64
	var media [ladderSlots]memdev.Device
	for s := range off {
		off[s] = base + int64(s)*ladderStride
		hpa[s] = node.Window.Base + uint64(off[s])
		if media[s], dpa[s], err = e.mediaAt(off[s]); err != nil {
			return nil, err
		}
		if node.Stripe != nil && node.Stripe.Route(hpa[s]) != node.Ports[0] {
			return nil, fmt.Errorf("bench: ladder slot %#x is not on leg 0", off[s])
		}
	}
	win, rp, dev := node.DataPath(), node.Ports[0], e.legs[0]
	line := new([cxl.LineSize]byte)
	b4, b64, b4k := line[:4], line[:], make([]byte, cxl.MaxBurstLines*cxl.LineSize)
	handle := func(op cxl.MemOpcode, lines uint16, mask uint64, payload []byte) func(int) error {
		return func(s int) error {
			req := cxl.MemReq{Opcode: op, Addr: hpa[s], Lines: lines, Mask: mask}
			var resp cxl.MemResp
			if payload == nil {
				resp = dev.HandleMem(req)
			} else {
				resp = dev.HandleMemBurst(req, payload)
			}
			if resp.Opcode == cxl.RespErr {
				return fmt.Errorf("bench: %s answered %v", dev.Name(), resp.Opcode)
			}
			return nil
		}
	}
	rungs := []rung{
		{"pmemfs", [numKinds]func(int) error{
			func(s int) error { return lf.ReadAt(b64, off[s]-base) }, func(s int) error { return lf.WriteAt(b64, off[s]-base) },
			func(s int) error { return lf.ReadAt(b4k, off[s]-base) }, func(s int) error { return lf.WriteAt(b4k, off[s]-base) },
			func(s int) error { return lf.WriteAt(b4, off[s]-base) }}},
		{"window", [numKinds]func(int) error{
			func(s int) error { return win.ReadAt(b64, off[s]) }, func(s int) error { return win.WriteAt(b64, off[s]) },
			func(s int) error { return win.ReadAt(b4k, off[s]) }, func(s int) error { return win.WriteAt(b4k, off[s]) },
			func(s int) error { return win.WriteAt(b4, off[s]) }}},
	}
	if is := node.Stripe; is != nil {
		rungs = append(rungs, rung{"interleave", [numKinds]func(int) error{
			func(s int) error { return is.ReadAt(b64, int64(hpa[s])) }, func(s int) error { return is.WriteAt(b64, int64(hpa[s])) },
			func(s int) error { return is.ReadAt(b4k, int64(hpa[s])) }, func(s int) error { return is.WriteAt(b4k, int64(hpa[s])) },
			func(s int) error { return is.WriteAt(b4, int64(hpa[s])) }}})
	}
	return append(rungs,
		rung{"port", [numKinds]func(int) error{
			func(s int) error { return rp.ReadLine(hpa[s], line) }, func(s int) error { return rp.WriteLine(hpa[s], line) },
			func(s int) error { return rp.ReadBurst(hpa[s], b4k) }, func(s int) error { return rp.WriteBurst(hpa[s], b4k) },
			func(s int) error { return rp.WriteAt(b4, int64(hpa[s])) }}},
		rung{"device", [numKinds]func(int) error{
			handle(cxl.OpMemRd, 0, 0, nil),
			handle(cxl.OpMemWr, 0, 0, nil),
			handle(cxl.OpMemRdBurst, cxl.MaxBurstLines, 0, b4k),
			handle(cxl.OpMemWrBurst, cxl.MaxBurstLines, 0, b4k),
			handle(cxl.OpMemWrPtl, 0, 0xf, nil)}},
		rung{"memdev", [numKinds]func(int) error{
			func(s int) error { return media[s].ReadAt(b64, dpa[s]) }, func(s int) error { return media[s].WriteAt(b64, dpa[s]) },
			func(s int) error { return media[s].ReadAt(b4k, dpa[s]) }, func(s int) error { return media[s].WriteAt(b4k, dpa[s]) },
			// The device's read-modify-write of the line.
			func(s int) error {
				if err := media[s].ReadAt(b64, dpa[s]); err != nil {
					return err
				}
				return media[s].WriteAt(b64, dpa[s])
			}}},
	), nil
}

// ladderTimer times rung calls in rounds, which a trace run spreads
// over its measured loop so the ladder sees the same host as the ops.
type ladderTimer struct {
	rungs   []rung
	slots   int
	clock   func() int64
	floor   float64
	round   int
	samples [][numKinds][]int64
}

// newLadderTimer measures the clock's own cost and makes one untimed
// pass over every slot, so first-touch page faults stay out of the
// times.
func newLadderTimer(rungs []rung, slots int, clock func() int64) (*ladderTimer, error) {
	floor := make([]int64, 1000)
	for i := range floor {
		t0 := clock()
		floor[i] = clock() - t0
	}
	lt := &ladderTimer{rungs: rungs, slots: slots, clock: clock, floor: median(floor), samples: make([][numKinds][]int64, len(rungs))}
	for s := 0; s < slots; s++ {
		for _, rg := range rungs {
			for k, call := range rg.call {
				if err := call(s); err != nil {
					return nil, fmt.Errorf("ladder %s %s: %w", rg.name, kindNames[k], err)
				}
			}
		}
	}
	return lt, nil
}

// run times n rounds. Each round calls every rung once per kind, aimed
// at slot round mod slots, round-robin from one rung later than the
// round before: timed one after another, a rung inherits whatever state
// the previous one left in the caches, and a layer can even look faster
// than the layer it calls.
func (lt *ladderTimer) run(n int) error {
	for ; n > 0; n-- {
		slot := lt.round % lt.slots
		for k := 0; k < numKinds; k++ {
			for j := range lt.rungs {
				g := (lt.round + j) % len(lt.rungs)
				t0 := lt.clock()
				err := lt.rungs[g].call[k](slot)
				d := lt.clock() - t0
				if err != nil {
					return fmt.Errorf("ladder %s %s: %w", lt.rungs[g].name, kindNames[k], err)
				}
				lt.samples[g][k] = append(lt.samples[g][k], d)
			}
		}
		lt.round++
	}
	return nil
}

// midMeans returns each rung's time per kind, the mean of the middle
// half of its samples, clock cost removed.
func (lt *ladderTimer) midMeans() ladder {
	out := ladder{}
	for g, rg := range lt.rungs {
		var v [numKinds]float64
		for k := range v {
			v[k] = max(midMean(lt.samples[g][k])-lt.floor, 0)
		}
		out[rg.name] = v
	}
	return out
}
