// Hybrid memory architecture — the paper's §6 future-work item #2:
// DDR5 + CXL + DCPMM combined in one tiered hierarchy. Pages are
// allocated cold (far tier first — memtier's cold-start placement);
// each policy-daemon epoch reads device-side heat windows and promotes
// the hot set one tier toward DDR5, within a per-epoch migration
// budget, and the average access latency drops.
package main

import (
	"fmt"
	"log"

	"cxlpmem/internal/tiering"
	"cxlpmem/internal/topology"
)

func main() {
	log.SetFlags(0)
	m, _, err := topology.Setup1(topology.Setup1Options{})
	if err != nil {
		log.Fatal(err)
	}
	// 4 fast DDR5 pages, 8 CXL pages, 16 cold DCPMM pages.
	mgr, hybrid, err := tiering.NewDDR5CXLDCPMMHierarchy(m, 4, 8, 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("hybrid hierarchy:", hybrid.Name)
	for i, t := range mgr.Tiers() {
		fmt.Printf("  tier %d: %-6s %d pages on %s\n", i, t.Name, t.CapacityPages, t.Node.Device.Name())
	}
	daemon, err := tiering.NewDaemon(mgr, tiering.DaemonConfig{BudgetPages: 8})
	if err != nil {
		log.Fatal(err)
	}

	// Allocate 16 pages; cold start lands every one of them on DCPMM —
	// they must earn their way up through observed heat.
	var pages []tiering.PageID
	for i := 0; i < 16; i++ {
		id, err := mgr.Alloc()
		if err != nil {
			log.Fatal(err)
		}
		pages = append(pages, id)
	}
	for _, id := range pages {
		if tier, _ := mgr.TierOf(id); tier != 2 {
			log.Fatalf("cold start violated: page %d on tier %d", id, tier)
		}
	}
	fmt.Printf("\ncold start: all %d pages on dcpmm\n", len(pages))

	// Skewed workload: the first four pages are the hot set.
	buf := make([]byte, 4096)
	access := func() {
		for _, id := range pages[:4] {
			for i := 0; i < 64; i++ {
				if err := mgr.Read(id, buf, 0); err != nil {
					log.Fatal(err)
				}
			}
		}
		for _, id := range pages[4:] {
			if err := mgr.Read(id, buf, 0); err != nil {
				log.Fatal(err)
			}
		}
	}
	c0, err := hybrid.Core(0)
	if err != nil {
		log.Fatal(err)
	}

	access()
	before, err := mgr.AvgAccessLatency(hybrid, c0)
	if err != nil {
		log.Fatal(err)
	}

	// Drive the daemon epoch by epoch: the hot set climbs dcpmm → cxl
	// → ddr5, one level per eligible epoch, within the budget.
	for epoch := 0; epoch < 6; epoch++ {
		access()
		st := daemon.RunEpoch()
		tiers := mgr.Stats().PagesPerTier
		fmt.Printf("epoch %d: %d promoted, %d demoted, budget %d -> ddr5=%d cxl=%d dcpmm=%d\n",
			st.Epoch, st.Promoted, st.Demoted, st.BudgetUsed, tiers[0], tiers[1], tiers[2])
	}

	access()
	after, err := mgr.AvgAccessLatency(hybrid, c0)
	if err != nil {
		log.Fatal(err)
	}
	st := mgr.Stats()
	fmt.Printf("\ndaemon total: %d promoted, %d demoted, %d MiB moved\n",
		st.Promotions, st.Demotions, st.BytesMigrated>>20)
	fmt.Printf("avg access latency: %s cold-start -> %s converged (%.1fx better)\n",
		before, after, before.Ns()/after.Ns())
	for _, id := range pages[:4] {
		tier, err := mgr.TierOf(id)
		if err != nil {
			log.Fatal(err)
		}
		if tier != 0 {
			log.Fatalf("hot page %d still on tier %d", id, tier)
		}
	}
	fmt.Println("all four hot pages earned their way up to DDR5")
}
