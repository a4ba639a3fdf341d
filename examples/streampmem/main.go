// STREAM-PMem on CXL vs local DDR5 — the paper's core demonstration
// (§3.1): the same benchmark that ran against Optane DCPMM runs
// unchanged against CXL-attached memory, with real data movement,
// STREAM validation and persistence through the CXL.mem protocol.
package main

import (
	"fmt"
	"log"

	"cxlpmem"
	"cxlpmem/internal/numa"
	"cxlpmem/internal/stream"
	"cxlpmem/internal/topology"
)

const elements = 500_000

func main() {
	log.SetFlags(0)
	rt, err := cxlpmem.NewSetup1(cxlpmem.Setup1Options{})
	if err != nil {
		log.Fatal(err)
	}
	cores, err := numa.PlaceOnSocket(rt.Machine, 0, 8)
	if err != nil {
		log.Fatal(err)
	}

	// Class 1.a reference: App-Direct against local DDR5 (pmem#0).
	fmt.Println("STREAM-PMem, pool on /mnt/pmem0 (local DDR5, pmem#0):")
	runOn(rt, cores, 0)

	// Class 1.b: the identical program against CXL memory (pmem#2) —
	// "programs designed for PMem can seamlessly operate on
	// CXL-enabled devices" (§3.1).
	fmt.Println("\nSTREAM-PMem, pool on /mnt/pmem2 (CXL DDR4, pmem#2):")
	runOn(rt, cores, 2)

	// Persists reach the endpoint mostly as bursts, so the line counters
	// alone would undercount the traffic by orders of magnitude.
	st := rt.Card.Stats()
	w, r := st.Writes.Load(), st.Reads.Load()
	wb, rb := st.WriteBursts.Load(), st.ReadBursts.Load()
	if w+r+wb+rb > 0 {
		fmt.Printf("\nCXL endpoint serviced %d MemWr and %d MemRd line transactions,\n"+
			"plus %d write and %d read bursts carrying %d lines\n",
			w, r, wb, rb, st.BurstLines.Load())
	}
}

func runOn(rt *cxlpmem.Runtime, cores []topology.Core, node topology.NodeID) {
	poolSize := int64(elements)*3*8 + 4<<20
	pool, err := rt.CreatePool(node, "stream.obj", stream.Layout, poolSize)
	if err != nil {
		log.Fatal(err)
	}
	arr, err := stream.AllocPmemArrays(pool, elements)
	if err != nil {
		log.Fatal(err)
	}
	b := &stream.Bench{Engine: rt.Engine, Cores: cores, Node: node, Mode: cxlpmem.AppDirect}
	results, err := b.Run(arr, stream.Config{N: elements, NTimes: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(stream.Header())
	for _, r := range results {
		fmt.Println(r)
	}
}
