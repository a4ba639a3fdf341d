package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"log"
	"time"

	"cxlpmem/internal/chaos"
	"cxlpmem/internal/cluster"
	"cxlpmem/internal/cxl"
	"cxlpmem/internal/fabric"
	"cxlpmem/internal/units"
)

// runInject is the operator's front end to the chaos engine:
//
//	fabricctl inject <site> <action> [-seed S] [-nth N] [-every E] [-count C] [-delay D]
//
// It arms a single-rule plan against the demo pool's host0 leg (port,
// link, tenant mailbox, media), drives foreground traffic through the
// faulted path, and prints the deterministic fire schedule plus the
// detection/recovery evidence an operator would look for: link retries
// and retrains, command timeouts, RAS health.
func runInject(e *cluster.Elastic, args []string) {
	if len(args) < 2 {
		log.Fatal("usage: fabricctl inject <site> <action> [-seed S] [-nth N] [-every E] [-count C] [-delay D]")
	}
	site, err := chaos.ParseSite(args[0])
	if err != nil {
		log.Fatal(err)
	}
	action, err := chaos.ParseAction(args[1])
	if err != nil {
		log.Fatal(err)
	}
	if action == chaos.ActPowerCut {
		log.Fatal("inject: power-cut needs the devices attached with Engine.AttachDevice, and the demo pool does not expose its tenants' devices")
	}
	fs := flag.NewFlagSet("inject", flag.ExitOnError)
	seed := fs.Uint64("seed", 0xC0FFEE, "plan seed (same seed, same schedule)")
	nth := fs.Uint64("nth", 0, "fire on the Nth matching event")
	every := fs.Uint64("every", 0, "fire on every Eth matching event")
	count := fs.Uint64("count", 0, "total fire cap (0 = unlimited)")
	delay := fs.Duration("delay", 0, "action duration where one applies")
	must(fs.Parse(args[2:]))

	rule := chaos.Rule{
		Site: site, Action: action,
		Trigger: chaos.Trigger{Nth: *nth, Every: *every, Count: *count},
		Delay:   *delay,
	}
	// Untriggered rules take a per-action default so the demo always
	// fires something observable.
	if rule.Trigger.Nth == 0 && rule.Trigger.Every == 0 {
		switch action {
		case chaos.ActFlap, chaos.ActRemove:
			rule.Trigger.Nth = 9
		case chaos.ActStall, chaos.ActGarble:
			rule.Trigger.Every = 1
		default:
			rule.Trigger.Every = 7
		}
	}
	if rule.Trigger.Count == 0 && action != chaos.ActRemove {
		rule.Trigger.Count = 8
	}

	h := e.Hosts[0]
	exts, err := e.Fabric.Extents(h.Tenant.Name())
	if err != nil || len(exts) == 0 {
		log.Fatalf("host0 extents: %v", err)
	}
	if site == chaos.SiteMedia {
		rule.Trigger.AddrLo = exts[0].DPA
		rule.Trigger.AddrHi = exts[0].DPA + uint64(exts[0].Size)
	}

	plan := chaos.Plan{Seed: *seed, Rules: []chaos.Rule{rule}}
	eng, err := chaos.NewEngine(plan)
	if err != nil {
		log.Fatal(err)
	}
	mbox := h.Tenant.Mailbox()
	eng.AttachPort(h.Port)
	eng.AttachSwitch(e.Switch)
	eng.AttachMailbox(h.Tenant.Name(), mbox)
	eng.AttachMedia(h.Tenant.Name(), func(dpa uint64) error {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], dpa)
		if _, st := mbox.Execute(cxl.OpInjectPoison, b[:]); st != cxl.MboxSuccess {
			return fmt.Errorf("inject poison: %v", st)
		}
		return nil
	})
	defer eng.Disarm()

	// Backoff on, so retries under the fault are visibly paced, and a
	// command deadline so a stalled mailbox cannot hang the agent.
	h.Port.SetOptions(cxl.PortOptions{RetryBackoff: 50 * time.Microsecond})
	e.SetCommandDeadline(25 * time.Millisecond)

	before := h.Port.Stats()
	fmt.Printf("armed: %s/%s seed=%#x trigger{nth:%d every:%d count:%d}\n",
		site, action, *seed, rule.Trigger.Nth, rule.Trigger.Every, rule.Trigger.Count)

	switch site {
	case chaos.SitePort, chaos.SiteLink, chaos.SiteSnoop:
		injectDriveWire(e, h, exts[0])
	case chaos.SiteMailbox, chaos.SiteFabric:
		injectDriveCommands(e)
	case chaos.SiteMedia:
		injectDriveMedia(e, eng, mbox)
	}

	after := h.Port.Stats()
	fmt.Println("── fault schedule (deterministic for this seed)")
	if s := eng.ScheduleString(); s != "" {
		fmt.Print(s)
	} else {
		fmt.Println("(no rule fired)")
	}
	fmt.Printf("── port counters: retries +%d, retrains +%d, timeouts +%d, link %v\n",
		after.Retries-before.Retries, after.Retrains-before.Retrains,
		after.Timeouts-before.Timeouts, h.Port.State())
}

// injectDriveWire pushes foreground bursts through the faulted leg and
// reports every outcome — recovered writes under corruption, parked
// writes across a flap, fail-fast ErrLinkDown after a surprise remove.
func injectDriveWire(e *cluster.Elastic, h *cluster.ElasticHost, x fabric.ExtentInfo) {
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = byte(i * 11)
	}
	okN, downN := 0, 0
	var firstErr error
	for n := 0; n < 64; n++ {
		addr := h.Window.Base + x.DPA + uint64(n%16)*4096
		err := h.Port.WriteBurst(addr, buf)
		if err == nil {
			err = h.Port.ReadBurst(addr, buf)
		}
		switch {
		case err == nil:
			okN++
		case errors.Is(err, cxl.ErrLinkDown):
			downN++
			if firstErr == nil {
				firstErr = err
			}
		default:
			log.Fatalf("foreground op %d: unrecovered error: %v", n, err)
		}
	}
	fmt.Printf("drove 64 round trips: %d recovered/clean, %d failed fast after removal\n", okN, downN)
	if firstErr != nil {
		fmt.Println("first post-removal outcome:", firstErr)
	}
}

// injectDriveCommands exercises the capacity-agent command plane under
// the armed mailbox/fabric fault.
func injectDriveCommands(e *cluster.Elastic) {
	for n := 0; n < 4; n++ {
		_, err := e.Grow(0, 256*units.KiB)
		if err != nil {
			fmt.Printf("grow %d: bounded failure: %v\n", n, err)
			continue
		}
		fmt.Printf("grow %d: ok (host0 now %v)\n", n, e.Capacity(0))
	}
}

// injectDriveMedia pulses the latent-poison rule, then shows patrol
// scrub detecting what was planted.
func injectDriveMedia(e *cluster.Elastic, eng *chaos.Engine, mbox *cxl.Mailbox) {
	for n := 0; n < 16; n++ {
		eng.Pulse()
	}
	p := enableRAS(e)
	name := "tenant:host0"
	if _, err := p.ScrubPass(name); err != nil {
		log.Fatalf("scrub: %v", err)
	}
	fmt.Printf("patrol scrub found %d poisoned line(s)\n", p.Health(name).PoisonedLines)
	if st, err := p.Evaluate(name); err != nil {
		log.Fatal(err)
	} else {
		fmt.Printf("policy: %s -> %v\n", name, st)
	}
	printHealth(p)
}
