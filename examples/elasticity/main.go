// Multi-tenant elasticity — the fabric manager's dynamic-capacity
// model end to end: three tenant hosts share one pooled appliance
// through a CXL 2.0 switch, and their shares grow, shrink, move and
// get forcibly reclaimed while traffic flows. The finale wires the
// hybrid-tiering manager's demotion target through a fabric-granted
// extent, so cold pages physically land on capacity that was added
// dynamically — the paper's §6 future-work items (scale-out pooling
// and hybrid architectures) composed.
package main

import (
	"fmt"
	"log"
	"strings"
	"sync"

	"cxlpmem/internal/cluster"
	"cxlpmem/internal/cxl"
	"cxlpmem/internal/memdev"
	"cxlpmem/internal/telemetry"
	"cxlpmem/internal/tiering"
	"cxlpmem/internal/topology"
	"cxlpmem/internal/units"
)

func main() {
	log.SetFlags(0)

	// A 24 MiB appliance, three tenants with 16 MiB quotas, 4 MiB
	// starting capacity each. The QoS pipeline is set to a deliberately
	// tiny 8 MB/s so the share enforcement is visible in wall-clock
	// bandwidth.
	e, err := cluster.NewElastic(cluster.ElasticConfig{
		Hosts:        3,
		Pool:         24 * units.MiB,
		Quota:        16 * units.MiB,
		Initial:      4 * units.MiB,
		PipelineGBps: 0.008,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(e.Describe())

	// One registry observes everything below: every host port's latency
	// histograms and transaction counters, the fabric manager's
	// grant/reclaim ledger, and (wired later) the tiering manager's
	// migrations. The same registry is what `fabricctl top -serve`
	// exports over HTTP.
	// The demo moves only a few hundred transactions per host, so sample
	// densely; a long-lived deployment would keep the 1-in-64 default.
	reg := telemetry.NewRegistry()
	e.EnableTelemetry(reg, cxl.TelemetryOptions{SampleN: 4})

	// --- Elastic growth under skewed QoS shares -----------------------
	// host0's workload heats up: it gets more capacity and a bigger
	// share of the pipeline; the others are squeezed.
	fmt.Println("\n── host0 grows by 4 MiB and takes a 60% pipeline share")
	grown, err := e.Grow(0, 4*units.MiB)
	if err != nil {
		log.Fatal(err)
	}
	for _, x := range grown {
		fmt.Println("   granted:", x)
	}
	for i, share := range []float64{0.60, 0.20, 0.20} {
		if err := e.Throttle.SetShare(fmt.Sprintf("host%d", i), share); err != nil {
			log.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	rates := make([]units.Bandwidth, len(e.Hosts))
	for i := range e.Hosts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := e.Drive(i, 512*units.KiB)
			if err != nil {
				log.Fatal(err)
			}
			rates[i] = r
		}(i)
	}
	wg.Wait()
	for i, r := range rates {
		fmt.Printf("   host%d drove 512 KiB at %v (share %.0f%%)\n", i, r, []float64{60, 20, 20}[i])
	}

	// --- Forced reclaim of an unresponsive tenant ---------------------
	fmt.Println("\n── host2 stops responding: forced reclaim, then its bytes move to host1")
	revoked, err := e.Fabric.ForceReclaim("host2")
	if err != nil {
		log.Fatal(err)
	}
	h2 := e.Hosts[2]
	buf := make([]byte, 4096)
	accessErr := h2.Port.ReadBurst(h2.Window.Base+revoked[0].DPA, buf)
	fmt.Printf("   host2 access now fails with poison: %v\n", accessErr)
	if _, err := e.Grow(1, 4*units.MiB); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   host1 absorbed the reclaimed capacity: %v active\n", e.Capacity(1))

	// --- Cold pages onto dynamically added capacity -------------------
	// host0 builds a two-tier hierarchy: 2 pages of fast local DDR5,
	// and a cold tier whose device is host0's fabric-granted capacity —
	// including the extent added by the Grow above. The tiering daemon
	// demotes cold pages there with real data movement.
	fmt.Println("\n── tiering: cold pages demoted onto host0's fabric-granted extents")
	fastDev, err := memdev.NewDRAM(memdev.DRAMConfig{
		Name: "ddr5-host0", Rate: 4800, Channels: 1,
		CapacityPerChannel: 4 * units.MiB,
	})
	if err != nil {
		log.Fatal(err)
	}
	h0 := e.Hosts[0]
	coldDev := h0.Tenant.Device() // quota-sized, extent-backed
	mgr, err := tiering.NewManager(
		&tiering.Tier{
			Name:          "ddr5",
			Node:          &topology.Node{ID: 0, Kind: topology.NodeDRAM, Device: fastDev, HomeSocket: 0},
			CapacityPages: 2,
		},
		&tiering.Tier{
			Name:          "cxl-dcd",
			Node:          &topology.Node{ID: 1, Kind: topology.NodeCXL, Device: coldDev, HomeSocket: -1, AttachSocket: 0},
			CapacityPages: 4, // 8 MiB: the initial 4 MiB grant + the grown 4 MiB
		},
	)
	if err != nil {
		log.Fatal(err)
	}
	mgr.RegisterMetrics(reg)
	daemon, err := tiering.NewDaemon(mgr, tiering.DaemonConfig{BudgetPages: 8})
	if err != nil {
		log.Fatal(err)
	}
	var pages []tiering.PageID
	for i := 0; i < 6; i++ {
		id, err := mgr.Alloc()
		if err != nil {
			log.Fatal(err)
		}
		pages = append(pages, id)
	}
	// Cold-start placement put the first four pages on the fabric-granted
	// cold tier and the overflow on DDR5. Pages 0 and 1 — cold-tier
	// residents — are the hot set, read before each of three epochs; the
	// rest go cold. Write real data so the migrations move real bytes.
	payload := make([]byte, 64)
	for _, id := range pages {
		for i := range payload {
			payload[i] = byte(id)
		}
		if err := mgr.Write(id, payload, 0); err != nil {
			log.Fatal(err)
		}
	}
	_, _, _, before := coldDev.Stats().Snapshot()
	const epochs = 3
	for e := 0; e < epochs; e++ {
		for r := 0; r < 16; r++ {
			for _, id := range pages[:2] {
				if err := mgr.Read(id, payload, 0); err != nil {
					log.Fatal(err)
				}
			}
		}
		daemon.RunEpoch()
	}
	_, _, _, after := coldDev.Stats().Snapshot()
	demotedBytes := after - before
	st := mgr.Stats()
	fmt.Printf("   daemon: %d epochs, %d promotions, %d demotions\n", epochs, st.Promotions, st.Demotions)
	fmt.Printf("   %d bytes of cold pages landed on fabric-granted capacity\n", demotedBytes)
	for i, id := range pages {
		ti, err := mgr.TierOf(id)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("   page %d -> tier %d (%s)\n", id, ti, []string{"ddr5", "cxl-dcd"}[ti])
		if hot := i < 2; hot != (ti == 0) {
			log.Fatalf("page %d left on tier %d: the hot set belongs on ddr5, the rest on cxl-dcd", id, ti)
		}
	}
	// The demoted pages are still intact through the tiering view.
	for _, id := range pages {
		if err := mgr.Read(id, payload, 0); err != nil {
			log.Fatal(err)
		}
		if payload[0] != byte(id) {
			log.Fatalf("page %d corrupted after demotion: %#x", id, payload[0])
		}
	}
	fmt.Println("   all pages verified after migration")

	fmt.Println()
	fmt.Print(e.Fabric.Describe())

	// --- The whole run through one pane of glass ----------------------
	// Everything above left its trace in the registry: port traffic and
	// tail latency, the fabric grant/reclaim ledger, and the tiering
	// migrations — one Gather, no per-subsystem plumbing.
	fmt.Println("\n── telemetry: the same story, read back from the unified registry")
	var burst *telemetry.HistSnapshot
	for _, s := range reg.Gather() {
		switch {
		case s.Kind == telemetry.KindHistogram &&
			s.Name == "cxl_port_latency_ns" &&
			strings.Contains(s.Labels, `port="rp-h0"`) &&
			strings.Contains(s.Labels, `op="burst"`):
			burst = s.Hist
		case s.Kind == telemetry.KindHistogram, s.Value == 0:
		case strings.HasPrefix(s.Name, "cxl_port_issued"),
			strings.HasPrefix(s.Name, "fabric_"),
			strings.HasPrefix(s.Name, "tiering_"):
			fmt.Printf("   %s%s = %.0f\n", s.Name, s.Labels, s.Value)
		}
	}
	if burst != nil && burst.Count > 0 {
		fmt.Printf("   host0 burst latency: p50=%dns p99=%dns over %d sampled transactions\n",
			burst.Quantile(0.50), burst.Quantile(0.99), burst.Count)
	}
}
