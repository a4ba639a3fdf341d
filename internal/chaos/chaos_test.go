package chaos

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cxlpmem/internal/cxl"
	"cxlpmem/internal/interconnect"
	"cxlpmem/internal/memdev"
	"cxlpmem/internal/units"
)

// chaosPort builds a trained port over a 16 MiB Type-3 device with one
// HDM window at base 0 — the chaos tests' fixture.
func chaosPort(tb testing.TB, name string) (*cxl.RootPort, *cxl.Type3Device) {
	tb.Helper()
	media, err := memdev.NewDRAM(memdev.DRAMConfig{
		Name:               name + "-ddr4",
		Rate:               1333,
		Channels:           2,
		CapacityPerChannel: 8 * units.MiB,
		BatteryBacked:      true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	dev, err := cxl.NewType3(name, 0x8086, 0x0D93, media)
	if err != nil {
		tb.Fatal(err)
	}
	if err := dev.ProgramDecoder(&cxl.HDMDecoder{Base: 0, Size: 1 << 24}); err != nil {
		tb.Fatal(err)
	}
	link, err := interconnect.NewPCIe(name+"-pcie", interconnect.KindPCIe5, 16, 0)
	if err != nil {
		tb.Fatal(err)
	}
	rp := cxl.NewRootPort(name+"-rp", link)
	if err := rp.Attach(dev); err != nil {
		tb.Fatal(err)
	}
	return rp, dev
}

// replayRun arms the plan on a fresh topology, drives a fixed
// single-threaded workload, and returns everything observable: the fire
// schedule, the per-op error strings, and the port counter deltas.
func replayRun(t *testing.T, plan Plan) (sched string, opErrs []string, stats cxl.PortStats) {
	t.Helper()
	rp, _ := chaosPort(t, "replay")
	eng, err := NewEngine(plan)
	if err != nil {
		t.Fatal(err)
	}
	eng.AttachPort(rp)
	defer eng.Disarm()

	var line [cxl.LineSize]byte
	for i := 0; i < 400; i++ {
		addr := uint64((i % 64) * cxl.LineSize)
		for j := range line {
			line[j] = byte(i + j)
		}
		var err error
		if i%3 == 2 {
			err = rp.ReadLine(addr, &line)
		} else {
			err = rp.WriteLine(addr, &line)
		}
		if err != nil {
			opErrs = append(opErrs, fmt.Sprintf("op%d: %v", i, err))
		}
	}
	return eng.ScheduleString(), opErrs, rp.Stats()
}

// TestChaosReplayDeterminism: the same seed and the same event stream
// replay a byte-identical fault schedule, the same op-level outcomes,
// and identical counter deltas — on two completely fresh topologies.
func TestChaosReplayDeterminism(t *testing.T) {
	plan := Plan{
		Seed: 0xC0FFEE,
		Rules: []Rule{
			{Site: SitePort, Action: ActCorrupt, Trigger: Trigger{Every: 23}},
			{Site: SitePort, Action: ActDrop, Trigger: Trigger{Nth: 17}},
			{Site: SitePort, Action: ActCorrupt, Trigger: Trigger{Prob: 0.01}},
			{Site: SitePort, Action: ActReorder, Trigger: Trigger{Nth: 101, Every: 211, Count: 2}},
		},
	}
	s1, e1, st1 := replayRun(t, plan)
	s2, e2, st2 := replayRun(t, plan)
	if s1 != s2 {
		t.Fatalf("fault schedules diverged:\nrun1:\n%srun2:\n%s", s1, s2)
	}
	if s1 == "" {
		t.Fatal("plan fired nothing; the workload should trip every rule family")
	}
	if fmt.Sprint(e1) != fmt.Sprint(e2) {
		t.Fatalf("op outcomes diverged:\nrun1: %v\nrun2: %v", e1, e2)
	}
	if st1.Retries != st2.Retries || st1.Timeouts != st2.Timeouts || st1.Retrains != st2.Retrains {
		t.Fatalf("counter deltas diverged: run1 %+v run2 %+v", st1, st2)
	}
	if st1.Retries == 0 {
		t.Error("corrupt/drop fires produced no link retries")
	}

	// A different seed must change the probabilistic part of the plan.
	plan.Seed = 0xBEEF
	s3, _, _ := replayRun(t, plan)
	if s3 == s1 {
		t.Error("different seed replayed the identical schedule")
	}
}

// TestChaosCountExhaustion: a Count-capped rule stops firing at its
// cap, and once every rule of the attachment is exhausted the hook is
// uninstalled — further traffic neither fires nor counts matches.
func TestChaosCountExhaustion(t *testing.T) {
	rp, _ := chaosPort(t, "exhaust")
	eng, err := NewEngine(Plan{
		Seed:  1,
		Rules: []Rule{{Site: SitePort, Action: ActCorrupt, Trigger: Trigger{Every: 3, Count: 4}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.AttachPort(rp)

	var line [cxl.LineSize]byte
	for i := 0; i < 200; i++ {
		if err := rp.WriteLine(uint64((i%8)*cxl.LineSize), &line); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if got := eng.Fires(); got != 4 {
		t.Fatalf("fires = %d, want the Count cap 4", got)
	}
	matches := eng.rules[0].matches.Load()
	retries := rp.Stats().Retries
	for i := 0; i < 200; i++ {
		if err := rp.WriteLine(uint64((i%8)*cxl.LineSize), &line); err != nil {
			t.Fatalf("post-exhaustion write %d: %v", i, err)
		}
	}
	if got := eng.rules[0].matches.Load(); got != matches {
		t.Errorf("exhausted rule still counting matches (%d -> %d): hook not uninstalled", matches, got)
	}
	if got := rp.Stats().Retries; got != retries {
		t.Errorf("retries moved %d -> %d after exhaustion", retries, got)
	}
}

// TestChaosMailbox: garble answers in the device's stead, stall defers
// execution past a command deadline, and fabric rules only touch the
// dynamic-capacity opcodes.
func TestChaosMailbox(t *testing.T) {
	_, dev := chaosPort(t, "mbox")
	mb, err := cxl.NewMailbox(dev, "chaos-fw")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(Plan{
		Seed: 7,
		Rules: []Rule{
			{Site: SiteMailbox, Action: ActGarble, Trigger: Trigger{Nth: 1}},
			{Site: SiteFabric, Action: ActGarble, Trigger: Trigger{Every: 1, Count: 1}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.AttachMailbox(dev.Name(), mb)
	defer eng.Disarm()

	// First command eats the one-shot mailbox garble.
	if _, st := mb.Execute(cxl.OpIdentifyMemDevice, nil); st != cxl.MboxInternalError {
		t.Fatalf("garbled command status = %v, want internal error", st)
	}
	// The fabric rule must ignore non-DCD opcodes entirely.
	if _, st := mb.Execute(cxl.OpIdentifyMemDevice, nil); st != cxl.MboxSuccess {
		t.Fatalf("clean command status = %v, want success", st)
	}
	// ...and fire on the first DCD opcode it sees.
	if _, st := mb.Execute(cxl.OpGetDCDConfig, nil); st != cxl.MboxInternalError {
		t.Fatalf("fabric-garbled DCD command status = %v, want internal error", st)
	}

	// Stall vs command deadline: the deadline expires, the caller gets
	// MboxTimeout, and the device's RAS counter records it.
	eng2, err := NewEngine(Plan{
		Seed:  8,
		Rules: []Rule{{Site: SiteMailbox, Action: ActStall, Trigger: Trigger{Every: 1}, Delay: 200 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng2.AttachMailbox(dev.Name(), mb)
	defer eng2.Disarm()
	before := dev.Media().Stats().CommandTimeouts.Load()
	if _, st := mb.ExecuteTimeout(cxl.OpIdentifyMemDevice, nil, 5*time.Millisecond); st != cxl.MboxTimeout {
		t.Fatalf("stalled command status = %v, want timeout", st)
	}
	if got := dev.Media().Stats().CommandTimeouts.Load(); got != before+1 {
		t.Errorf("command timeouts = %d, want %d", got, before+1)
	}
}

// TestChaosMediaPulse: poison placement is a pure function of the seed
// — two engines over the same plan plant the same line-aligned DPAs
// inside the rule's window.
func TestChaosMediaPulse(t *testing.T) {
	plant := func(seed uint64) []uint64 {
		eng, err := NewEngine(Plan{
			Seed: seed,
			Rules: []Rule{{
				Site: SiteMedia, Action: ActPoison,
				Trigger: Trigger{Every: 2, Count: 3, AddrLo: 1 << 12, AddrHi: 1 << 14},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		var dpas []uint64
		eng.AttachMedia("dev0", func(dpa uint64) error {
			dpas = append(dpas, dpa)
			return nil
		})
		for i := 0; i < 10; i++ {
			eng.Pulse()
		}
		return dpas
	}
	a, b := plant(42), plant(42)
	if len(a) != 3 {
		t.Fatalf("planted %d poisons, want Count=3", len(a))
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("poison placement diverged: %v vs %v", a, b)
	}
	for _, dpa := range a {
		if dpa%64 != 0 {
			t.Errorf("poison DPA %#x not line-aligned", dpa)
		}
		if dpa < 1<<12 || dpa >= 1<<14 {
			t.Errorf("poison DPA %#x outside window", dpa)
		}
	}
	if c := plant(43); fmt.Sprint(c) == fmt.Sprint(a) {
		t.Error("different seed planted identical poison")
	}
}

// TestChaosPowerCut: one power-cut rule over two devices counts their
// media writes together and, from its Nth on, drops every write on both
// while the ports report success, even after the rule is spent; Pulse
// never fires it, and Disarm restores power.
func TestChaosPowerCut(t *testing.T) {
	rpA, devA := chaosPort(t, "cutA")
	rpB, devB := chaosPort(t, "cutB")
	eng, err := NewEngine(Plan{Seed: 5, Rules: []Rule{{
		Site: SiteMedia, Action: ActPowerCut, Trigger: Trigger{Nth: 5},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	eng.AttachDevice(devA)
	eng.AttachDevice(devB)
	eng.AttachMedia("cutA", func(uint64) error {
		t.Error("Pulse planted poison for a power-cut rule")
		return nil
	})
	eng.Pulse()
	if eng.Fires() != 0 {
		t.Fatal("Pulse fired the power cut")
	}

	var line [cxl.LineSize]byte
	ports := []*cxl.RootPort{rpA, rpB}
	devs := []*cxl.Type3Device{devA, devB}
	for i := range 10 {
		line[0] = byte(i + 1)
		if err := ports[i%2].WriteLine(uint64(i*cxl.LineSize), &line); err != nil {
			t.Fatalf("write %d across the cut: %v", i+1, err)
		}
	}
	for i := range 10 {
		var got [1]byte
		if err := devs[i%2].Media().ReadAt(got[:], int64(i*cxl.LineSize)); err != nil {
			t.Fatal(err)
		}
		if landed := got[0] == byte(i+1); landed != (i < 4) {
			t.Errorf("write %d landed = %v, want only the 4 before the cut", i+1, landed)
		}
	}
	if want := fmt.Sprintf("#0 r0 media/power-cut m5 kfd @%#x\n", 4*cxl.LineSize); eng.ScheduleString() != want {
		t.Errorf("schedule %q, want %q", eng.ScheduleString(), want)
	}

	eng.Disarm()
	line[0] = 0xEE
	if err := rpB.WriteLine(0, &line); err != nil {
		t.Fatal(err)
	}
	var got [1]byte
	if err := devB.Media().ReadAt(got[:], 0); err != nil || got[0] != 0xEE {
		t.Errorf("write after Disarm read back %#x, %v; want it landed", got[0], err)
	}
}

// TestChaosLinkFlap: a flap parks the next transaction in Retraining
// and replays it when the link comes back — no error ever surfaces.
func TestChaosLinkFlap(t *testing.T) {
	rp, _ := chaosPort(t, "flap")
	eng, err := NewEngine(Plan{
		Seed:  3,
		Rules: []Rule{{Site: SiteLink, Action: ActFlap, Trigger: Trigger{Nth: 2}, Delay: 2 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.AttachPort(rp)
	defer eng.Disarm()

	var line [cxl.LineSize]byte
	for i := range line {
		line[i] = byte(i * 3)
	}
	for i := 0; i < 50; i++ {
		if err := rp.WriteLine(uint64(i*cxl.LineSize), &line); err != nil {
			t.Fatalf("write %d across flap: %v", i, err)
		}
	}
	if got := rp.Stats().Retrains; got == 0 {
		t.Error("flap fired but no retrain was counted")
	}
	var out [cxl.LineSize]byte
	if err := rp.ReadLine(0, &out); err != nil {
		t.Fatal(err)
	}
	if out != line {
		t.Error("line written across the flap did not round-trip")
	}
	if rp.State() != cxl.LinkUp {
		t.Errorf("link state %v after recovered flap, want up", rp.State())
	}
}

// TestChaosSurpriseRemove: a mid-traffic surprise removal downs the
// link; every subsequent op fails fast with ErrLinkDown instead of
// wedging.
func TestChaosSurpriseRemove(t *testing.T) {
	rp, _ := chaosPort(t, "remove")
	eng, err := NewEngine(Plan{
		Seed:  4,
		Rules: []Rule{{Site: SiteLink, Action: ActRemove, Trigger: Trigger{Nth: 7}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.AttachPort(rp)
	defer eng.Disarm()

	var line [cxl.LineSize]byte
	sawDown := false
	for i := 0; i < 50; i++ {
		if err := rp.WriteLine(uint64(i*cxl.LineSize), &line); err != nil {
			if !errors.Is(err, cxl.ErrLinkDown) {
				t.Fatalf("write %d: %v, want ErrLinkDown", i, err)
			}
			sawDown = true
		}
	}
	if !sawDown {
		t.Fatal("surprise remove never surfaced ErrLinkDown")
	}
	if rp.State() != cxl.LinkDown {
		t.Errorf("link state %v after surprise remove, want down", rp.State())
	}
}

// TestChaosValidate rejects the malformed plans the fuzzer would
// otherwise feed the engine.
func TestChaosValidate(t *testing.T) {
	bad := []Plan{
		{Rules: []Rule{{Site: SitePort, Action: ActFlap, Trigger: Trigger{Nth: 1}}}},
		{Rules: []Rule{{Site: SiteMedia, Action: ActPoison, Trigger: Trigger{Nth: 1}}}},
		{Rules: []Rule{{Site: SiteMedia, Action: ActPowerCut, Trigger: Trigger{Nth: 1, AddrHi: 4096}}}},
		{Rules: []Rule{{Site: SitePort, Action: ActCorrupt}}},
		{Rules: []Rule{{Site: SitePort, Action: ActCorrupt, Trigger: Trigger{Prob: 1.5}}}},
		{Rules: []Rule{{Site: SitePort, Action: ActCorrupt, Trigger: Trigger{Nth: 1, AddrLo: 8, AddrHi: 8}}}},
		{Rules: []Rule{{Site: SitePort, Action: ActDelay, Trigger: Trigger{Nth: 1}, Delay: -time.Second}}},
	}
	for i, p := range bad {
		if err := p.validate(); err == nil {
			t.Errorf("bad plan %d validated", i)
		}
	}
	good := Plan{Rules: []Rule{
		{Site: SiteLink, Action: ActFlap, Trigger: Trigger{Prob: 0.5}},
		{Site: SiteMedia, Action: ActPoison, Trigger: Trigger{Nth: 1, AddrHi: 4096}},
		{Site: SiteMedia, Action: ActPowerCut, Trigger: Trigger{Nth: 1}},
	}}
	if err := good.validate(); err != nil {
		t.Errorf("good plan rejected: %v", err)
	}
}

// TestChaosParseRoundTrip: every site and action name parses back to
// itself — the contract fabricctl inject relies on.
func TestChaosParseRoundTrip(t *testing.T) {
	for _, s := range []Site{SitePort, SiteLink, SiteMailbox, SiteSnoop, SiteMedia, SiteFabric} {
		got, err := ParseSite(s.String())
		if err != nil || got != s {
			t.Errorf("ParseSite(%q) = %v, %v", s.String(), got, err)
		}
	}
	for _, a := range []Action{ActCorrupt, ActDrop, ActDelay, ActReorder, ActFlap, ActRemove, ActStall, ActGarble, ActPoison, ActPowerCut} {
		got, err := ParseAction(a.String())
		if err != nil || got != a {
			t.Errorf("ParseAction(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ParseSite("bogus"); err == nil {
		t.Error("bogus site parsed")
	}
	if _, err := ParseAction("bogus"); err == nil {
		t.Error("bogus action parsed")
	}
}
