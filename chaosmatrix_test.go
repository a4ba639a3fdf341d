package cxlpmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"cxlpmem/internal/chaos"
	"cxlpmem/internal/cluster"
	"cxlpmem/internal/cxl"
	"cxlpmem/internal/fabric"
	"cxlpmem/internal/ras"
	"cxlpmem/internal/units"
)

// Chaos fault matrix: every chaos site is armed against one tenant leg
// of a live elastic pool — in two phases, before the foreground load
// starts and in the middle of it — while a second tenant runs clean as
// the isolation control. This is the rasmatrix discipline applied to
// the fault-injection engine itself: instead of one scripted failure,
// the whole (site × phase) plane, each cell under a wall-clock
// watchdog.
//
// Invariants asserted in every cell:
//   - zero hangs: the cell completes under its watchdog, and every
//     foreground op returns (recovered, or a typed fail-fast error);
//   - zero data loss: every ACKED write reads back byte-exact (skipped
//     only after a surprise removal takes the readback path itself);
//   - fault containment: the control tenant never sees an error;
//   - zero goroutine leaks: the goroutine count settles back to the
//     pre-cell baseline;
//   - bounded tail: foreground p99 stays under chaosP99Bound even with
//     the fault armed.

const (
	chaosSeed     = 0xD15EA5E
	chaosPages    = 16
	chaosPageSize = 4096
	chaosRounds   = 20
	chaosP99Bound = 2 * time.Second
	chaosCellTime = 90 * time.Second
)

// chaosCell is one matrix row: a plan plus how to drive and judge it.
type chaosCell struct {
	name  string
	rules []chaos.Rule
	// removes marks plans that surprise-remove the victim leg: the tail
	// of the foreground sees ErrLinkDown and the final readback is
	// impossible through the dead port.
	removes bool
	// cmds drives capacity commands (Grow) under a command deadline.
	cmds bool
	// media pulses the latent-poison rule and checks patrol detection.
	media bool
}

func chaosCells() []chaosCell {
	return []chaosCell{
		{name: "port-corrupt", rules: []chaos.Rule{
			{Site: chaos.SitePort, Action: chaos.ActCorrupt, Trigger: chaos.Trigger{Every: 13}}}},
		{name: "port-drop", rules: []chaos.Rule{
			{Site: chaos.SitePort, Action: chaos.ActDrop, Trigger: chaos.Trigger{Every: 17, Count: 8}}}},
		{name: "port-delay", rules: []chaos.Rule{
			{Site: chaos.SitePort, Action: chaos.ActDelay, Trigger: chaos.Trigger{Every: 29, Count: 6}, Delay: 100 * time.Microsecond}}},
		{name: "port-reorder", rules: []chaos.Rule{
			{Site: chaos.SitePort, Action: chaos.ActReorder, Trigger: chaos.Trigger{Every: 31, Count: 4}}}},
		{name: "link-flap", rules: []chaos.Rule{
			{Site: chaos.SiteLink, Action: chaos.ActFlap, Trigger: chaos.Trigger{Nth: 40}, Delay: 2 * time.Millisecond}}},
		{name: "link-remove", removes: true, rules: []chaos.Rule{
			{Site: chaos.SiteLink, Action: chaos.ActRemove, Trigger: chaos.Trigger{Nth: 120}}}},
		{name: "mailbox-stall", cmds: true, rules: []chaos.Rule{
			{Site: chaos.SiteMailbox, Action: chaos.ActStall, Trigger: chaos.Trigger{Every: 2, Count: 6}, Delay: 50 * time.Millisecond}}},
		{name: "fabric-garble", cmds: true, rules: []chaos.Rule{
			{Site: chaos.SiteFabric, Action: chaos.ActGarble, Trigger: chaos.Trigger{Every: 2, Count: 4}}}},
		{name: "media-poison", media: true, rules: []chaos.Rule{
			{Site: chaos.SiteMedia, Action: chaos.ActPoison, Trigger: chaos.Trigger{Every: 1, Count: 3}}}},
	}
}

func TestChaosMatrixEverySiteEveryPhase(t *testing.T) {
	for _, cell := range chaosCells() {
		for _, phase := range []string{"armed-before", "armed-mid"} {
			cell, phase := cell, phase
			t.Run(cell.name+"/"+phase, func(t *testing.T) {
				runChaosCell(t, cell, phase)
			})
		}
	}
}

func runChaosCell(t *testing.T, cell chaosCell, phase string) {
	baseGoroutines := runtime.NumGoroutine()

	e, err := cluster.NewElastic(cluster.ElasticConfig{
		Hosts:   2,
		Pool:    16 * units.MiB,
		Quota:   8 * units.MiB,
		Initial: 2 * units.MiB,
		Granule: 256 * units.KiB,
	})
	if err != nil {
		t.Fatal(err)
	}
	victim, ctrl := e.Hosts[0], e.Hosts[1]
	exts, err := e.Fabric.Extents(victim.Tenant.Name())
	if err != nil || len(exts) == 0 {
		t.Fatalf("victim extents: %v", err)
	}
	vx := exts[0]
	cexts, err := e.Fabric.Extents(ctrl.Tenant.Name())
	if err != nil || len(cexts) == 0 {
		t.Fatalf("control extents: %v", err)
	}

	// The media rule's placement window lives in the extent's back half
	// — headroom the foreground never touches, so the latent poison is
	// patrol's to find, exactly like the rasmatrix seeding.
	rules := append([]chaos.Rule(nil), cell.rules...)
	for i := range rules {
		if rules[i].Site == chaos.SiteMedia {
			rules[i].Trigger.AddrLo = vx.DPA + uint64(vx.Size)/2
			rules[i].Trigger.AddrHi = vx.DPA + uint64(vx.Size)
		}
	}
	eng, err := chaos.NewEngine(chaos.Plan{Seed: chaosSeed, Rules: rules})
	if err != nil {
		t.Fatal(err)
	}
	mbox := victim.Tenant.Mailbox()
	arm := func() {
		eng.AttachPort(victim.Port)
		eng.AttachSwitch(e.Switch)
		eng.AttachMailbox(victim.Tenant.Name(), mbox)
		eng.AttachMedia(victim.Tenant.Name(), func(dpa uint64) error {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], dpa)
			if _, st := mbox.Execute(cxl.OpInjectPoison, b[:]); st != cxl.MboxSuccess {
				return fmt.Errorf("inject poison: %v", st)
			}
			return nil
		})
	}
	victim.Port.SetOptions(cxl.PortOptions{RetryBackoff: 20 * time.Microsecond})
	e.SetCommandDeadline(10 * time.Millisecond)
	if phase == "armed-before" {
		arm()
	}

	var (
		mirror  [chaosPages][]byte // last ACKED write per page
		lats    []time.Duration
		downN   int
		cmdErrs int
	)
	pageAddr := func(x fabric.ExtentInfo, h *cluster.ElasticHost, p int) uint64 {
		return h.Window.Base + x.DPA + uint64(p*chaosPageSize)
	}
	body := func() error {
		buf := make([]byte, chaosPageSize)
		rbuf := make([]byte, chaosPageSize)
		cbuf := make([]byte, chaosPageSize)
		for round := 0; round < chaosRounds; round++ {
			if phase == "armed-mid" && round == 3 {
				arm()
			}
			for p := 0; p < chaosPages; p++ {
				for i := range buf {
					buf[i] = byte(round*31 + p*7 + i)
				}
				t0 := time.Now()
				err := victim.Port.WriteBurst(pageAddr(vx, victim, p), buf)
				lats = append(lats, time.Since(t0))
				switch {
				case err == nil:
					mirror[p] = append(mirror[p][:0], buf...)
					// Read-own-write: an acked write is immediately visible.
					if rerr := victim.Port.ReadBurst(pageAddr(vx, victim, p), rbuf); rerr == nil {
						if !bytes.Equal(buf, rbuf) {
							return fmt.Errorf("round %d page %d: acked write read back corrupted", round, p)
						}
					} else if !cell.removes || !errors.Is(rerr, cxl.ErrLinkDown) {
						return fmt.Errorf("round %d page %d: readback: %w", round, p, rerr)
					}
				case cell.removes && errors.Is(err, cxl.ErrLinkDown):
					downN++ // fail-fast after surprise removal: the wanted outcome
				default:
					return fmt.Errorf("round %d page %d: unrecovered foreground error: %w", round, p, err)
				}
			}
			// Control tenant: must never feel the victim's faults.
			for i := range cbuf {
				cbuf[i] = byte(round ^ i)
			}
			if err := ctrl.Port.WriteBurst(pageAddr(cexts[0], ctrl, 0), cbuf); err != nil {
				return fmt.Errorf("round %d: control write: %w", round, err)
			}
			if err := ctrl.Port.ReadBurst(pageAddr(cexts[0], ctrl, 0), rbuf); err != nil || !bytes.Equal(cbuf, rbuf[:len(cbuf)]) {
				return fmt.Errorf("round %d: control round trip broken (%v)", round, err)
			}
			if cell.cmds && round%5 == 0 {
				t0 := time.Now()
				if _, err := e.Grow(0, 256*units.KiB); err != nil {
					cmdErrs++ // bounded failure is acceptable; hanging is not
				}
				if d := time.Since(t0); d > 5*time.Second {
					return fmt.Errorf("round %d: capacity command took %v despite deadline", round, d)
				}
			}
			if cell.media && round%7 == 0 {
				eng.Pulse()
			}
		}
		return nil
	}

	// Global watchdog: the cell must terminate, full stop.
	done := make(chan error, 1)
	go func() { done <- body() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(chaosCellTime):
		t.Fatalf("cell wedged: watchdog expired after %v", chaosCellTime)
	}

	if eng.Fires() == 0 {
		t.Fatalf("plan never fired; the cell proved nothing (schedule empty)")
	}
	eng.Disarm()

	// Zero data loss: every acked page reads back byte-exact. A removed
	// leg has no readback path — there the invariant is fail-fast.
	if !cell.removes {
		out := make([]byte, chaosPageSize)
		for p := 0; p < chaosPages; p++ {
			if mirror[p] == nil {
				continue
			}
			if err := victim.Port.ReadBurst(pageAddr(vx, victim, p), out); err != nil {
				t.Fatalf("final readback page %d: %v", p, err)
			}
			if !bytes.Equal(mirror[p], out) {
				t.Errorf("page %d diverged from the last acked write", p)
			}
		}
	} else {
		if downN == 0 {
			t.Error("surprise removal produced no fail-fast ErrLinkDown")
		}
		if victim.Port.State() != cxl.LinkDown {
			t.Errorf("victim link %v after removal, want down", victim.Port.State())
		}
	}

	// Site-specific detection evidence.
	st := victim.Port.Stats()
	switch cell.name {
	case "port-corrupt", "port-drop", "port-reorder":
		if st.Retries == 0 {
			t.Error("wire faults fired but the retry path never engaged")
		}
	case "link-flap":
		if st.Retrains == 0 {
			t.Error("flap fired but no retrain was counted")
		}
	case "mailbox-stall":
		if cmdErrs == 0 {
			t.Error("stalled commands all beat a 10ms deadline across 50ms stalls")
		}
		if victim.Tenant.Device().Stats().CommandTimeouts.Load() == 0 {
			t.Error("command deadline expiries not counted on the device")
		}
	case "fabric-garble":
		if cmdErrs == 0 {
			t.Error("garbled DCD commands never surfaced an error")
		}
	case "media-poison":
		p, err := e.EnableRAS(ras.Thresholds{MaxCorrectable: 2, MaxUncorrectable: 1, MaxLinkRetries: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		name := "tenant:" + victim.Tenant.Name()
		if _, err := p.ScrubPass(name); err != nil {
			t.Fatalf("patrol scrub: %v", err)
		}
		h := p.Health(name)
		if h.PoisonedLines != int64(eng.Fires()) || h.PoisonedLines == 0 {
			t.Errorf("patrol found %d poisoned lines, plan planted %d", h.PoisonedLines, eng.Fires())
		}
	}

	// Bounded tail: p99 of the foreground under fault.
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if p99 := lats[len(lats)*99/100]; p99 > chaosP99Bound {
		t.Errorf("foreground p99 = %v under %s, bound %v", p99, cell.name, chaosP99Bound)
	}

	// Zero goroutine leaks: stall timers and parked transactions all drain.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseGoroutines+2 {
		t.Errorf("goroutines %d after cell, baseline %d: leak", n, baseGoroutines)
	}
}

// TestChaosMatrixReplay pins the engine's core promise at matrix scale:
// re-running one full cell with the same seed replays a byte-identical
// fault schedule.
func TestChaosMatrixReplay(t *testing.T) {
	run := func() string {
		e, err := cluster.NewElastic(cluster.ElasticConfig{
			Hosts: 1, Pool: 8 * units.MiB, Quota: 4 * units.MiB,
			Initial: units.MiB, Granule: 256 * units.KiB,
		})
		if err != nil {
			t.Fatal(err)
		}
		h := e.Hosts[0]
		exts, err := e.Fabric.Extents(h.Tenant.Name())
		if err != nil || len(exts) == 0 {
			t.Fatalf("extents: %v", err)
		}
		eng, err := chaos.NewEngine(chaos.Plan{Seed: chaosSeed, Rules: []chaos.Rule{
			{Site: chaos.SitePort, Action: chaos.ActCorrupt, Trigger: chaos.Trigger{Every: 11}},
			{Site: chaos.SitePort, Action: chaos.ActDrop, Trigger: chaos.Trigger{Prob: 0.02}},
		}})
		if err != nil {
			t.Fatal(err)
		}
		eng.AttachPort(h.Port)
		defer eng.Disarm()
		buf := make([]byte, chaosPageSize)
		for n := 0; n < 64; n++ {
			addr := h.Window.Base + exts[0].DPA + uint64(n%8)*chaosPageSize
			if err := h.Port.WriteBurst(addr, buf); err != nil {
				t.Fatalf("write %d: %v", n, err)
			}
		}
		return eng.ScheduleString()
	}
	s1, s2 := run(), run()
	if s1 != s2 {
		t.Fatalf("matrix replay diverged:\nrun1:\n%srun2:\n%s", s1, s2)
	}
	if s1 == "" {
		t.Fatal("replay cell fired nothing")
	}
}
