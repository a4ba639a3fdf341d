package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"strings"

	"cxlpmem/internal/cluster"
	"cxlpmem/internal/telemetry"
	"cxlpmem/internal/tiering"
	"cxlpmem/internal/topology"
	"cxlpmem/internal/units"
)

// runTier demonstrates the memtier policy plane from both ends: the
// hybrid DDR5/CXL/DCPMM hierarchy with the policy daemon's epochs
// converging a zipfian workload out of cold start, and the per-tenant
// memory-type masks steering elastic-pool grants onto matching media.
// Ends with the tiering_* telemetry the registry exposes.
func runTier(e *cluster.Elastic, args []string) {
	fs := flag.NewFlagSet("tier", flag.ExitOnError)
	pages := fs.Int("pages", 16, "managed pages (2 MiB each)")
	hotset := fs.Int("hotset", 4, "hot-set size == fast-tier pages")
	epochs := fs.Int("epochs", 8, "policy epochs to run")
	budget := fs.Int("budget", 8, "migration budget per epoch (pages)")
	samples := fs.Int("samples", 2000, "zipfian accesses per epoch")
	must(fs.Parse(args))
	if *hotset >= *pages {
		log.Fatal("hotset must be smaller than pages")
	}

	machine, _, err := topology.Setup1(topology.Setup1Options{})
	if err != nil {
		log.Fatal(err)
	}
	mgr, hybrid, err := tiering.NewDDR5CXLDCPMMHierarchy(machine, *hotset, *pages/2, *pages)
	if err != nil {
		log.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	mgr.RegisterMetrics(reg)
	d, err := tiering.NewDaemon(mgr, tiering.DaemonConfig{BudgetPages: *budget})
	if err != nil {
		log.Fatal(err)
	}
	d.RegisterMetrics(reg)
	c0, err := hybrid.Core(0)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("── memtier daemon: %d pages cold-started far, zipfian hot set of %d\n", *pages, *hotset)
	ids := make([]tiering.PageID, *pages)
	for i := range ids {
		if ids[i], err = mgr.Alloc(); err != nil {
			log.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(42))
	zipf := rand.NewZipf(rng, 1.3, 2, uint64(*pages-1))
	buf := make([]byte, 64)
	drive := func() {
		for i := 0; i < *samples; i++ {
			p := int(zipf.Uint64())
			if err := mgr.Read(ids[p], buf, int64((i%64)*64)); err != nil {
				log.Fatal(err)
			}
		}
	}

	drive()
	static, err := mgr.AvgAccessLatency(hybrid, c0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("static far placement: avg access latency %v\n\n", static)
	fmt.Printf("%-6s %-9s %-8s %-7s %-9s %-14s %s\n",
		"EPOCH", "PROMOTED", "DEMOTED", "BUDGET", "DEFERRED", "PAGES/TIER", "EPOCH-TIME")
	for i := 0; i < *epochs; i++ {
		drive()
		st := d.RunEpoch()
		tiers := mgr.Stats().PagesPerTier
		fmt.Printf("%-6d %-9d %-8d %-7d %-9d %-14s %v\n",
			st.Epoch, st.Promoted, st.Demoted, st.BudgetUsed, st.Deferred,
			fmt.Sprintf("%v", tiers), st.Duration.Round(1000))
	}
	drive()
	tiered, err := mgr.AvgAccessLatency(hybrid, c0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndaemon placement: avg access latency %v (static far was %v)\n", tiered, static)
	fmt.Println("page placement (hot set first):")
	for i, id := range ids {
		tier, err := mgr.TierOf(id)
		if err != nil {
			log.Fatal(err)
		}
		tag := ""
		if i < *hotset {
			tag = " *hot*"
		}
		fmt.Printf("  page %-3d tier %d (%s)%s\n", id, tier, mgr.Tiers()[tier].Name, tag)
	}

	fmt.Println("\n── per-tenant memory-type masks over the elastic pool")
	if _, err := e.AddPMemPool("cold", 2*e.TotalPooled()); err != nil {
		log.Fatal(err)
	}
	if err := e.SetMemTypes(0, "dram,cxl"); err != nil {
		log.Fatal(err)
	}
	if err := e.SetMemTypes(1, "cxl,pmem"); err != nil {
		log.Fatal(err)
	}
	for _, host := range []int{0, 1} {
		mask, _ := e.MemTypes(host)
		exts, err := e.Grow(host, units.MiB)
		if err != nil {
			log.Fatal(err)
		}
		pools := map[string]int{}
		for _, x := range exts {
			pools[x.Pool]++
		}
		fmt.Printf("host%d mask=%-9s grew 1 MiB -> pools %v\n", host, mask, pools)
	}

	fmt.Println("\n── tiering_* telemetry")
	for _, s := range reg.Gather() {
		if !strings.HasPrefix(s.Name, "tiering_") {
			continue
		}
		if s.Hist != nil {
			fmt.Printf("%s%s count=%d p50=%dns p99=%dns\n", s.Name, s.Labels,
				s.Hist.Count, s.Hist.Quantile(0.5), s.Hist.Quantile(0.99))
			continue
		}
		fmt.Printf("%s%s = %v\n", s.Name, s.Labels, s.Value)
	}
}
