// Command fabricctl drives the CXL fabric manager the way an operator
// would drive a real fabric-management appliance: list the pool, grant
// and release tenant capacity, rebalance shares, force-reclaim an
// unresponsive tenant, and watch capacity events stream by. Like the
// other commands in this repository it is self-contained: it assembles
// a simulated elastic pool (cluster.NewElastic) and runs the requested
// operation against it, printing the fabric state before and after.
//
// Usage:
//
//	fabricctl [flags] list
//	fabricctl [flags] grant     -host N -mib M
//	fabricctl [flags] release   -host N -mib M
//	fabricctl [flags] rebalance -targets 5,1,2,2     (MiB per host)
//	fabricctl [flags] reclaim   -host N
//	fabricctl [flags] health
//	fabricctl [flags] evacuate  -pool NAME
//	fabricctl [flags] watch-events
//	fabricctl [flags] inject    SITE ACTION -seed S -nth N -every E -count C -delay D
//	fabricctl [flags] top       -iterations N -interval D -serve ADDR
//	fabricctl [flags] trace     -port N -n FLITS
//	fabricctl [flags] tier      -pages N -hotset H -epochs E -budget B
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"cxlpmem/internal/cluster"
	"cxlpmem/internal/cxl"
	"cxlpmem/internal/fabric"
	"cxlpmem/internal/ras"
	"cxlpmem/internal/units"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fabricctl: ")
	hosts := flag.Int("hosts", 4, "tenant host count")
	poolMiB := flag.Int("pool", 16, "appliance pool capacity (MiB)")
	quotaMiB := flag.Int("quota", 8, "per-tenant address-space quota (MiB)")
	initialMiB := flag.Int("initial", 2, "initial grant per tenant (MiB)")
	granuleKiB := flag.Int("granule", 256, "fabric extent granule (KiB)")
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		log.Fatal("missing subcommand: list | grant | release | rebalance | reclaim | health | evacuate | watch-events | inject | top | trace | tier")
	}

	e, err := cluster.NewElastic(cluster.ElasticConfig{
		Hosts:   *hosts,
		Pool:    units.Size(*poolMiB) * units.MiB,
		Quota:   units.Size(*quotaMiB) * units.MiB,
		Initial: units.Size(*initialMiB) * units.MiB,
		Granule: units.Size(*granuleKiB) * units.KiB,
	})
	if err != nil {
		log.Fatal(err)
	}

	cmd, args := flag.Arg(0), flag.Args()[1:]
	switch cmd {
	case "list":
		fmt.Print(e.Describe())
		fmt.Println()
		fmt.Print(e.Fabric.Describe())
	case "grant":
		host, size := hostSizeArgs(args)
		fmt.Printf("before: host%d holds %v, pool free %v\n", host, e.Capacity(host), e.Fabric.Remaining())
		exts, err := e.Grow(host, size)
		if err != nil {
			log.Fatal(err)
		}
		for _, x := range exts {
			fmt.Println("granted:", x)
		}
		verifyExtent(e, host, exts[0])
		fmt.Printf("after:  host%d holds %v, pool free %v\n", host, e.Capacity(host), e.Fabric.Remaining())
	case "release":
		host, size := hostSizeArgs(args)
		fmt.Printf("before: host%d holds %v, pool free %v\n", host, e.Capacity(host), e.Fabric.Remaining())
		released, err := e.Shrink(host, size)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("released %v (whole extents)\n", released)
		fmt.Printf("after:  host%d holds %v, pool free %v\n", host, e.Capacity(host), e.Fabric.Remaining())
	case "rebalance":
		fs := flag.NewFlagSet("rebalance", flag.ExitOnError)
		spec := fs.String("targets", "", "per-host target capacities in MiB, comma-separated")
		must(fs.Parse(args))
		targets, err := parseTargets(*spec, len(e.Hosts))
		if err != nil {
			log.Fatal(err)
		}
		for i := range e.Hosts {
			fmt.Printf("before: host%d %v\n", i, e.Capacity(i))
		}
		if err := e.Rebalance(targets); err != nil {
			log.Fatal(err)
		}
		for i := range e.Hosts {
			fmt.Printf("after:  host%d %v\n", i, e.Capacity(i))
		}
	case "reclaim":
		fs := flag.NewFlagSet("reclaim", flag.ExitOnError)
		host := fs.Int("host", 0, "host index")
		must(fs.Parse(args))
		revoked, err := e.Fabric.ForceReclaim(fmt.Sprintf("host%d", *host))
		if err != nil {
			log.Fatal(err)
		}
		for _, x := range revoked {
			fmt.Println("revoked:", x)
		}
		// Demonstrate the poison: the tenant's next access fails.
		if len(revoked) > 0 {
			h := e.Hosts[*host]
			buf := make([]byte, 4096)
			err := h.Port.ReadBurst(h.Window.Base+revoked[0].DPA, buf)
			fmt.Printf("tenant access after reclaim: %v\n", err)
		}
		fmt.Printf("pool free: %v (reclaimed bytes immediately re-grantable)\n", e.Fabric.Remaining())
	case "health":
		runHealth(e)
	case "evacuate":
		fs := flag.NewFlagSet("evacuate", flag.ExitOnError)
		pool := fs.String("pool", "", "pool to drain (default: primary)")
		must(fs.Parse(args))
		runEvacuate(e, *pool)
	case "watch-events":
		watchEvents(e)
	case "inject":
		runInject(e, args)
	case "top":
		runTop(e, args)
	case "trace":
		runTrace(e, args)
	case "tier":
		runTier(e, args)
	default:
		log.Fatalf("unknown subcommand %q", cmd)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// hostSizeArgs parses the shared -host/-mib pair.
func hostSizeArgs(args []string) (int, units.Size) {
	fs := flag.NewFlagSet("op", flag.ExitOnError)
	host := fs.Int("host", 0, "host index")
	mib := fs.Int("mib", 1, "size in MiB")
	must(fs.Parse(args))
	return *host, units.Size(*mib) * units.MiB
}

func parseTargets(spec string, hosts int) ([]units.Size, error) {
	if spec == "" {
		return nil, fmt.Errorf("rebalance needs -targets")
	}
	parts := strings.Split(spec, ",")
	if len(parts) != hosts {
		return nil, fmt.Errorf("got %d targets for %d hosts", len(parts), hosts)
	}
	out := make([]units.Size, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("target %d: %w", i, err)
		}
		out[i] = units.Size(v) * units.MiB
	}
	return out, nil
}

// verifyExtent writes and reads one burst through the host's root port
// against a freshly granted extent — grant output an operator can
// trust.
func verifyExtent(e *cluster.Elastic, host int, x fabric.ExtentInfo) {
	h := e.Hosts[host]
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = byte(i)
	}
	addr := h.Window.Base + x.DPA
	if err := h.Port.WriteBurst(addr, buf); err != nil {
		log.Fatalf("verify write: %v", err)
	}
	got := make([]byte, len(buf))
	if err := h.Port.ReadBurst(addr, got); err != nil {
		log.Fatalf("verify read: %v", err)
	}
	for i := range got {
		if got[i] != buf[i] {
			log.Fatalf("verify mismatch at byte %d", i)
		}
	}
	fmt.Println("verified: burst write/read through the root port OK")
}

// enableRAS wires the pool's RAS plane with thresholds low enough that
// the demo scenarios trip them.
func enableRAS(e *cluster.Elastic) *ras.Plane {
	p, err := e.EnableRAS(ras.Thresholds{
		MaxCorrectable:   2,
		MaxUncorrectable: 1,
		MaxLinkRetries:   64,
	})
	if err != nil {
		log.Fatal(err)
	}
	return p
}

// printHealth renders the plane's per-device table.
func printHealth(p *ras.Plane) {
	fmt.Printf("%-16s %-11s %12s %14s %12s %10s %7s\n",
		"DEVICE", "STATE", "CORRECTABLE", "UNCORRECTABLE", "LINKRETRIES", "POISONED", "PASSES")
	for _, name := range p.Devices() {
		h := p.Health(name)
		fmt.Printf("%-16s %-11s %12d %14d %12d %10d %7d\n",
			h.Device, h.State, h.Counters.Correctable, h.Counters.Uncorrectable,
			h.Counters.LinkRetries, h.PoisonedLines, h.Passes)
	}
}

// runHealth demonstrates the detection half of the RAS loop: patrol
// scrub walks every device, a latent poisoned line injected behind
// host0's back is caught and counted correctable, and the threshold
// policy degrades the tenant device.
func runHealth(e *cluster.Elastic) {
	p := enableRAS(e)
	fmt.Println("── baseline patrol pass")
	for _, name := range p.Devices() {
		if _, err := p.ScrubPass(name); err != nil {
			log.Fatalf("scrub %s: %v", name, err)
		}
	}
	printHealth(p)

	fmt.Println("── injecting 3 latent poisoned lines into host0's first extent")
	exts, err := e.Fabric.Extents("host0")
	if err != nil || len(exts) == 0 {
		log.Fatalf("host0 extents: %v", err)
	}
	mbox := e.Hosts[0].Tenant.Mailbox()
	for i := 0; i < 3; i++ {
		var dpa [8]byte
		binary.LittleEndian.PutUint64(dpa[:], exts[0].DPA+uint64(i)*4096)
		if _, status := mbox.Execute(cxl.OpInjectPoison, dpa[:]); status != cxl.MboxSuccess {
			log.Fatalf("inject poison: %v", status)
		}
	}

	fmt.Println("── patrol pass after injection")
	if _, err := p.ScrubPass("tenant:host0"); err != nil {
		log.Fatalf("scrub: %v", err)
	}
	if st, err := p.Evaluate("tenant:host0"); err != nil {
		log.Fatal(err)
	} else {
		fmt.Printf("policy: tenant:host0 -> %v\n", st)
	}
	printHealth(p)
	for _, ev := range p.Events() {
		fmt.Println("ras event:", ev)
	}
}

// runEvacuate demonstrates the recovery half: a spare pool is added,
// the named (default: primary) pool is drained onto it under a live
// write/readback workload, and the tenants come out with every byte
// intact on the spare.
func runEvacuate(e *cluster.Elastic, pool string) {
	p := enableRAS(e)
	if pool == "" {
		pool = e.MLD.Name()
	}
	spareSize := 2 * e.TotalPooled()
	if _, err := e.AddSparePool("spare", spareSize); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("added spare pool (%v); pools now: %v\n", spareSize, e.Fabric.Pools())

	// Seed a pattern through host0 so the move is checkable.
	h := e.Hosts[0]
	exts, err := e.Fabric.Extents("host0")
	if err != nil || len(exts) == 0 {
		log.Fatalf("host0 extents: %v", err)
	}
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	if err := h.Port.WriteBurst(h.Window.Base+exts[0].DPA, buf); err != nil {
		log.Fatalf("seed write: %v", err)
	}

	moved, err := e.EvacuatePool(p, pool)
	if err != nil {
		log.Fatalf("evacuate: %v (moved %d)", err, moved)
	}
	fmt.Printf("evacuated %d extents off %s\n", moved, pool)

	got := make([]byte, len(buf))
	if err := h.Port.ReadBurst(h.Window.Base+exts[0].DPA, got); err != nil {
		log.Fatalf("readback: %v", err)
	}
	for i := range got {
		if got[i] != buf[i] {
			log.Fatalf("readback mismatch at byte %d after evacuation", i)
		}
	}
	fmt.Println("verified: tenant data intact through the root port after the move")
	printHealth(p)
	for _, ev := range p.Events() {
		fmt.Println("ras event:", ev)
	}
}

// watchEvents runs a scripted capacity scenario against the raw
// fabric API and streams every tenant's events as they arrive — what
// an operator console tailing the fabric would show. The host agents
// answer each event through the real mailbox path, and those answers
// are logged too.
func watchEvents(e *cluster.Elastic) {
	p := enableRAS(e)
	type step struct {
		desc string
		run  func() error
	}
	script := []step{
		{"grant 1 MiB to host0", func() error { _, err := e.Fabric.Grant("host0", units.MiB); return err }},
		{"request release of 1 MiB from host0", func() error { _, err := e.Fabric.RequestRelease("host0", units.MiB); return err }},
		{"force-reclaim host1", func() error { _, err := e.Fabric.ForceReclaim("host1"); return err }},
		{"patrol scrub all devices", func() error {
			for _, name := range p.Devices() {
				if _, err := p.ScrubPass(name); err != nil {
					return err
				}
				if _, err := p.Evaluate(name); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	for _, s := range script {
		fmt.Println("──", s.desc)
		if err := s.run(); err != nil {
			log.Fatal(err)
		}
		// Host agents: drain, print, answer.
		for _, h := range e.Hosts {
			mbox := h.Tenant.Mailbox()
			for _, ev := range h.Tenant.Events() {
				fmt.Printf("   event -> %s: %v\n", h.Tenant.Name(), ev)
				switch ev.Type {
				case fabric.EventAddCapacity:
					if _, status := mbox.Execute(cxl.OpAddDCDResponse, cxl.EncodeDCDResponse(ev.Extent.DCD(), true)); status != cxl.MboxSuccess {
						log.Fatalf("accept: %v", status)
					}
					fmt.Printf("   %s accepted ext#%d via mailbox\n", h.Tenant.Name(), ev.Extent.Tag)
				case fabric.EventReleaseRequest, fabric.EventForcedReclaim:
					if _, status := mbox.Execute(cxl.OpReleaseDCD, cxl.EncodeDCDExtent(ev.Extent.DCD())); status != cxl.MboxSuccess {
						log.Fatalf("release: %v", status)
					}
					fmt.Printf("   %s released ext#%d via mailbox\n", h.Tenant.Name(), ev.Extent.Tag)
				}
			}
		}
		// RAS feed: plane events interleave with the capacity events so
		// the operator sees scrub and health transitions in stream order.
		for _, ev := range p.Events() {
			fmt.Printf("   ras -> %s: %s\n", ev.Device, ev.Detail)
		}
		fmt.Printf("   pool free: %v\n", e.Fabric.Remaining())
	}
}
