package cxlpmem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"cxlpmem/internal/cluster"
	"cxlpmem/internal/cxl"
	"cxlpmem/internal/fabric"
	"cxlpmem/internal/ras"
	"cxlpmem/internal/telemetry"
	"cxlpmem/internal/units"
)

// RAS fault matrix: the detection→recovery pipeline an operator drives
// with `fabricctl health` and then `fabricctl evacuate` — patrol scrub
// finds latent poison in a tenant's extent, the threshold policy
// degrades the tenant, a spare pool is hot-added and the primary pool
// is drained onto it — is replayed once per cut point, with a
// recoverable CRC fault storm raging on the tenant's link from that
// phase onward and foreground tenant traffic running throughout. This
// is the crashmatrix discipline applied to the RAS plane: instead of a
// power cut after every media write, a link-degradation onset before
// every pipeline phase.
//
// Invariants asserted after every cut:
//   - zero data loss: the static seed and the foreground writer's
//     mirror both read back byte-exact through the tenant's port;
//   - no stuck tenant: every foreground op completes (the writer
//     fails the test on any error, and the run joins it);
//   - containment: the sibling tenant's port carries no op and no
//     retry during the pipeline, and its bytes survive the pool drain;
//   - truthful plane: the tenant ends Degraded with its poison count,
//     the primary pool Offline with none of the tenant's extents left
//     on it.

// rasPhases double as cut labels: cut=k means the CRC storm on host0's
// link starts just before phase k; cut=len(rasPhases) is the control
// run.
var rasPhases = []string{"patrol-scrub", "evaluate", "add-spare", "evacuate"}

const (
	rasPoisonLines = 3
	rasFgLen       = 64 << 10 // foreground writer's band
	rasPage        = 4096
	rasLine        = uint64(cxl.LineSize)
)

func TestRASMatrixFaultAtEveryPhase(t *testing.T) {
	for cut := 0; cut <= len(rasPhases); cut++ {
		label := "control"
		if cut < len(rasPhases) {
			label = "storm@" + rasPhases[cut]
		}
		t.Run(label, func(t *testing.T) { runRASMatrixCut(t, cut) })
	}
}

// rasFirstExtent returns the host's lowest-DPA extent.
func rasFirstExtent(t *testing.T, e *cluster.Elastic, host int) fabric.ExtentInfo {
	t.Helper()
	exts, err := e.Fabric.Extents(e.Hosts[host].Tenant.Name())
	if err != nil || len(exts) == 0 {
		t.Fatalf("host%d extents: %v (%d)", host, err, len(exts))
	}
	return exts[0]
}

// rasStorm installs a transient CRC storm on rp: every fifth flit is
// corrupted, but never a retransmission of a flit the storm itself just
// corrupted, so every message gets through on its first retry and the
// storm stays inside the link's retry budget however the tenant's
// writer and the patrol interleave on the link.
func rasStorm(rp *cxl.RootPort) {
	var mu sync.Mutex
	n := 0
	corrupted := make(map[cxl.Flit]bool)
	rp.SetFault(func(f cxl.Flit) cxl.Flit {
		mu.Lock()
		defer mu.Unlock()
		if corrupted[f] {
			delete(corrupted, f)
			return f
		}
		n++
		if n%5 == 3 {
			corrupted[f] = true
			return f.Corrupt(13)
		}
		return f
	})
}

// rasReadExtent reads x back through io, page by page, leaving the
// poisoned lines zero: a demand read of one would fail.
func rasReadExtent(io cxl.MemIO, base uint64, x fabric.ExtentInfo, mbox *cxl.Mailbox) ([]byte, error) {
	out := make([]byte, x.Size)
	for off := uint64(0); off < x.Size; off += rasPage {
		dpa := x.DPA + off
		if !mbox.HasPoisonIn(dpa, rasPage) {
			if err := io.ReadBurst(base+dpa, out[off:off+rasPage]); err != nil {
				return nil, err
			}
			continue
		}
		for l := off; l < off+rasPage; l += rasLine {
			if mbox.IsPoisoned(x.DPA + l) {
				continue
			}
			if err := io.ReadBurst(base+x.DPA+l, out[l:l+rasLine]); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func runRASMatrixCut(t *testing.T, cut int) {
	e, err := cluster.NewElastic(cluster.ElasticConfig{
		Hosts:   2,
		Pool:    16 * units.MiB,
		Quota:   8 * units.MiB,
		Initial: units.MiB,
		Granule: 256 * units.KiB,
	})
	if err != nil {
		t.Fatal(err)
	}
	h0, h1 := e.Hosts[0], e.Hosts[1]
	x0, x1 := rasFirstExtent(t, e, 0), rasFirstExtent(t, e, 1)
	primary := e.MLD.Name()
	mbox := h0.Tenant.Mailbox()

	// For the storm-from-the-start cut, telemetry watches the ports with
	// sampling effectively off — the flight recorder then holds only
	// CRC-failed flits (error capture bypasses sampling) — and the
	// recorders are attached to the plane, so the Degraded transition
	// must snapshot the faulty wire history into its event.
	if cut == 0 {
		e.EnableTelemetry(telemetry.NewRegistry(), cxl.TelemetryOptions{SampleN: 1 << 30, RecorderSlots: 4096})
	}
	// Link retries are expected under the storm, so only the error
	// counters drive degradation here.
	plane, err := e.EnableRAS(ras.Thresholds{MaxCorrectable: rasPoisonLines, MaxUncorrectable: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cut == 0 {
		if err := e.AttachFlightRecorders(plane); err != nil {
			t.Fatal(err)
		}
	}

	// Static seeds over both tenants' first extents, written through
	// their own ports.
	seed := func(x fabric.ExtentInfo, salt int) []byte {
		b := make([]byte, x.Size)
		for i := range b {
			b[i] = byte(i*13 + salt)
		}
		return b
	}
	seed0, seed1 := seed(x0, 7), seed(x1, 91)
	if err := h0.Port.WriteBurst(h0.Window.Base+x0.DPA, seed0); err != nil {
		t.Fatal(err)
	}
	if err := h1.Port.WriteBurst(h1.Window.Base+x1.DPA, seed1); err != nil {
		t.Fatal(err)
	}

	// Latent poison in the back half of host0's extent, where no demand
	// access reaches: only patrol can find it.
	half := x0.Size / 2
	for i := 0; i < rasPoisonLines; i++ {
		var dpa [8]byte
		binary.LittleEndian.PutUint64(dpa[:], x0.DPA+half+uint64(i)*rasPage)
		if _, status := mbox.Execute(cxl.OpInjectPoison, dpa[:]); status != cxl.MboxSuccess {
			t.Fatalf("inject poison %d: %v", i, status)
		}
		clear(seed0[half+uint64(i)*rasPage:][:cxl.LineSize])
	}

	// Foreground tenant: writes rounds of a distinct pattern into its
	// band in the front half, verifies read-own-write every round, and
	// mirrors the last committed round for the final readback check.
	fgOff := half / 4
	fgAddr := h0.Window.Base + x0.DPA + fgOff
	var (
		mirrorMu sync.Mutex
		mirror   = bytes.Clone(seed0[fgOff : fgOff+rasFgLen])
		started  = make(chan struct{})
		stop     = make(chan struct{})
		fgDone   = make(chan struct{})
		once     sync.Once
		rounds   atomic.Int64
	)
	go func() {
		defer close(fgDone)
		buf := make([]byte, rasFgLen)
		out := make([]byte, rasFgLen)
		for round := 1; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			for i := range buf {
				buf[i] = byte(round) ^ byte(i*31)
			}
			if err := h0.Port.WriteBurst(fgAddr, buf); err != nil {
				t.Errorf("foreground write round %d: %v", round, err)
				return
			}
			mirrorMu.Lock()
			copy(mirror, buf)
			mirrorMu.Unlock()
			if err := h0.Port.ReadBurst(fgAddr, out); err != nil {
				t.Errorf("foreground read round %d: %v", round, err)
				return
			}
			if !bytes.Equal(buf, out) {
				t.Errorf("foreground round %d: read-own-write mismatch", round)
				return
			}
			rounds.Add(1)
			once.Do(func() { close(started) })
		}
	}()
	// halt stops the writer and joins it, also when a phase fails the
	// test early.
	halt := sync.OnceFunc(func() { close(stop); <-fgDone })
	defer halt()
	select {
	case <-started:
	case <-fgDone:
		t.FailNow()
	}
	sibling := h1.Port.Stats()

	phases := []func() error{
		func() error { // patrol-scrub
			n, err := plane.ScrubPass("tenant:host0")
			if err == nil && n == 0 {
				return fmt.Errorf("patrol scrubbed nothing")
			}
			return err
		},
		func() error { // evaluate
			st, err := plane.Evaluate("tenant:host0")
			if err == nil && st != ras.Degraded {
				return fmt.Errorf("tenant:host0 state %v after poisoned pass, want degraded", st)
			}
			return err
		},
		func() error { // add-spare
			_, err := e.AddSparePool("spare", 2*e.TotalPooled())
			return err
		},
		func() error { // evacuate
			moved, err := e.EvacuatePool(plane, primary)
			if err == nil && moved == 0 {
				return fmt.Errorf("evacuation moved no extent")
			}
			return err
		},
	}
	for i, run := range phases {
		if i == cut {
			// At cut 0 the patrol pass itself crosses the stormed link
			// before the Degraded transition, so the dump checked below
			// is bound to hold CRC-failed flits.
			rasStorm(h0.Port)
		}
		if err := run(); err != nil {
			t.Fatalf("cut=%d phase %s: %v", cut, rasPhases[i], err)
		}
	}
	if cut == len(phases) {
		rasStorm(h0.Port) // control run: storm only after the pipeline completes
	}

	// No stuck tenant: the writer completes a full round on the spare
	// pool, under the storm, before it is stopped (or it has already
	// failed the test and quit).
	for r := rounds.Load(); rounds.Load() < r+2; {
		select {
		case <-fgDone:
			t.FailNow()
		default:
			runtime.Gosched()
		}
	}
	halt()
	h0.Port.SetFault(nil)
	if got := h0.Port.Stats().Retries; got == 0 {
		t.Error("the storm never hit host0's link")
	}

	// Containment: the pool drain moved host1's bytes media to media,
	// so its port saw neither an op nor a retry.
	if got := h1.Port.Stats(); got.Issued != sibling.Issued || got.Retries != 0 {
		t.Errorf("host1 port moved during the pipeline: issued %d -> %d, retries %d",
			sibling.Issued, got.Issued, got.Retries)
	}

	// Zero data loss: host0's static seed outside the foreground band,
	// its mirror inside it, and host1's seed.
	out, err := rasReadExtent(h0.Port, h0.Window.Base, x0, mbox)
	if err != nil {
		t.Fatalf("host0 readback: %v", err)
	}
	if !bytes.Equal(out[:fgOff], seed0[:fgOff]) {
		t.Error("host0 static prefix corrupted across the pipeline")
	}
	if !bytes.Equal(out[fgOff+rasFgLen:], seed0[fgOff+rasFgLen:]) {
		t.Error("host0 static suffix corrupted across the pipeline")
	}
	mirrorMu.Lock()
	if !bytes.Equal(out[fgOff:fgOff+rasFgLen], mirror) {
		t.Error("host0 foreground band diverged from the writer's mirror")
	}
	mirrorMu.Unlock()
	out1 := make([]byte, x1.Size)
	if err := h1.Port.ReadBurst(h1.Window.Base+x1.DPA, out1); err != nil {
		t.Fatalf("host1 readback: %v", err)
	}
	if !bytes.Equal(out1, seed1) {
		t.Error("host1 bytes corrupted by the pool drain")
	}

	// Flight-recorder dump: the Degraded transition captured the wire
	// history, and it contains the storm's CRC-failed flits.
	if cut == 0 {
		var degraded ras.Event
		for _, ev := range plane.Events() {
			if ev.Device == "tenant:host0" && ev.Kind == ras.EventStateChange && ev.To == ras.Degraded {
				degraded = ev
			}
		}
		if degraded.Device == "" {
			t.Fatal("no Degraded transition recorded for tenant:host0")
		}
		errFlits := 0
		for _, f := range degraded.Flits {
			if f.Err {
				errFlits++
			}
		}
		if errFlits == 0 {
			t.Errorf("flight dump at Degraded (%d flits) carries no CRC-failed flit from the storm", len(degraded.Flits))
		}
	}

	// Truthful plane: the tenant keeps its history, the drained pool is
	// offline and empty of the tenant, the sibling is untouched.
	if h := plane.Health("tenant:host0"); h.State != ras.Degraded || h.PoisonedLines != rasPoisonLines {
		t.Errorf("tenant:host0 health = %v/%d poisoned, want degraded/%d", h.State, h.PoisonedLines, rasPoisonLines)
	}
	if st := plane.Health("pool:" + primary).State; st != ras.Offline {
		t.Errorf("pool:%s state = %v, want offline", primary, st)
	}
	if st, err := plane.Evaluate("tenant:host1"); err != nil || st != ras.Healthy {
		t.Errorf("tenant:host1 state = %v (%v), want healthy", st, err)
	}
	exts, err := e.Fabric.Extents("host0")
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range exts {
		if x.Pool == primary {
			t.Errorf("host0 extent %v still on the drained pool", x)
		}
	}
}
