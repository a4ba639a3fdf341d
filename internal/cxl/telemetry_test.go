package cxl

import (
	"errors"
	"testing"

	"cxlpmem/internal/telemetry"
)

// telemetryPort builds a trained port with telemetry attached, sampling
// every transaction so the tests observe deterministic capture.
func telemetryPort(t *testing.T) (*RootPort, *telemetry.Registry, *telemetry.FlightRecorder) {
	t.Helper()
	rp, _ := burstPort(t, 1<<24)
	reg := telemetry.NewRegistry()
	rec := rp.EnableTelemetry(reg, TelemetryOptions{SampleN: 1, RecorderSlots: 256})
	return rp, reg, rec
}

// gatherValue finds a sample by name+labels and returns its value.
func gatherValue(t *testing.T, reg *telemetry.Registry, name, labels string) float64 {
	t.Helper()
	for _, s := range reg.Gather() {
		if s.Name == name && s.Labels == labels {
			return s.Value
		}
	}
	t.Fatalf("sample %s%s not gathered", name, labels)
	return 0
}

// TestPortTelemetryCapture drives sampled traffic and checks the flight
// recorder saw the wire and the latency histograms moved.
func TestPortTelemetryCapture(t *testing.T) {
	rp, reg, rec := telemetryPort(t)
	var line [LineSize]byte
	line[0] = 0xAB
	if err := rp.WriteLine(0, &line); err != nil {
		t.Fatal(err)
	}
	var out [LineSize]byte
	if err := rp.ReadLine(0, &out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 0xAB {
		t.Fatalf("read back %#x", out[0])
	}
	if rec.Recorded() == 0 {
		t.Fatal("sampled traffic recorded no flits")
	}
	dump := rec.Dump()
	kinds := map[uint8]bool{}
	for _, r := range dump {
		if r.Err {
			t.Fatalf("clean traffic recorded an error flit: %+v", r)
		}
		kinds[r.Kind] = true
	}
	// A write + read round trip crosses request, response and data
	// flits; at minimum two distinct kinds must appear.
	if len(kinds) < 2 {
		t.Fatalf("dump kinds = %v, want >= 2 distinct", kinds)
	}

	// Latency histograms must have samples for read and write.
	for _, op := range []string{"read", "write"} {
		found := false
		for _, s := range reg.Gather() {
			if s.Name == "cxl_port_latency_ns" && s.Labels == telemetry.Labels("port", rp.Name(), "op", op) {
				found = true
				if s.Hist.Count == 0 {
					t.Errorf("op=%s histogram empty", op)
				}
			}
		}
		if !found {
			t.Errorf("op=%s histogram not gathered", op)
		}
	}

	// The collector view must agree with PortStats.
	st := rp.Stats()
	if got := gatherValue(t, reg, "cxl_port_issued_total", telemetry.Labels("port", rp.Name())); int64(got) != st.Issued {
		t.Errorf("collector issued %v, Stats %d", got, st.Issued)
	}
}

// TestPortTelemetryForcedErrorCapture corrupts flits and checks
// CRC-failed wire images are force-recorded even when the transactions
// are never sampled.
func TestPortTelemetryForcedErrorCapture(t *testing.T) {
	rp, _ := burstPort(t, 1<<24)
	reg := telemetry.NewRegistry()
	// Sample (effectively) never: only forced error records may appear.
	rec := rp.EnableTelemetry(reg, TelemetryOptions{SampleN: 1 << 30, RecorderSlots: 256})
	n := 0
	rp.SetFault(func(f Flit) Flit {
		n++
		if n%3 == 0 {
			f.raw[20] ^= 0xFF
		}
		return f
	})
	var line [LineSize]byte
	for i := 0; i < 8; i++ {
		if err := rp.WriteLine(uint64(i*LineSize), &line); err != nil {
			t.Fatal(err)
		}
	}
	if rp.Stats().Retries == 0 {
		t.Fatal("fault injection produced no retries")
	}
	dump := rec.Dump()
	if len(dump) == 0 {
		t.Fatal("no forced error records in flight recorder")
	}
	for _, r := range dump {
		if !r.Err {
			t.Fatalf("unsampled traffic leaked a clean record: %+v", r)
		}
	}
}

// TestPortTelemetryHookChaining checks that a per-flit hook installed
// after telemetry still sees every flit of a sampled transaction while
// the recorder is fed, and that the recorder survives the hook's
// removal.
func TestPortTelemetryHookChaining(t *testing.T) {
	rp, _, rec := telemetryPort(t)
	seen := 0
	rp.SetFault(func(f Flit) Flit { seen++; return f })
	var line [LineSize]byte
	if err := rp.WriteLine(0, &line); err != nil {
		t.Fatal(err)
	}
	if seen == 0 {
		t.Fatal("per-flit hook not carried by the telemetry tap")
	}
	before := rec.Recorded()
	if before != uint64(seen) {
		t.Fatalf("recorder captured %d flits of a sampled transaction, hook saw %d", before, seen)
	}
	rp.SetFault(nil)
	if err := rp.WriteLine(0, &line); err != nil {
		t.Fatal(err)
	}
	if rec.Recorded() == before {
		t.Fatal("recorder stopped after hook removal")
	}
	rp.DisableTelemetry()
	after := rec.Recorded()
	if err := rp.WriteLine(0, &line); err != nil {
		t.Fatal(err)
	}
	if rec.Recorded() != after {
		t.Fatal("recorder still fed after DisableTelemetry")
	}
	if rp.FlightRecorder() != nil {
		t.Fatal("FlightRecorder non-nil after disable")
	}
}

// TestPortTelemetryBurst checks burst traffic lands in the burst
// histogram and its flits reach the recorder.
func TestPortTelemetryBurst(t *testing.T) {
	rp, reg, rec := telemetryPort(t)
	p := make([]byte, 8*LineSize)
	if err := rp.WriteBurst(0, p); err != nil {
		t.Fatal(err)
	}
	if err := rp.ReadBurst(0, p); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range reg.Gather() {
		if s.Name == "cxl_port_latency_ns" && s.Labels == telemetry.Labels("port", rp.Name(), "op", "burst") {
			found = s.Hist.Count >= 2
		}
	}
	if !found {
		t.Fatal("burst histogram missing or empty")
	}
	sawData := false
	for _, r := range rec.Dump() {
		if r.Kind == flitKindData {
			sawData = true
		}
	}
	if !sawData {
		t.Fatal("burst data flits not recorded")
	}
}

// TestSwitchSnoopTrace checks the always-on BISnp/BIRsp capture.
func TestSwitchSnoopTrace(t *testing.T) {
	sw := NewSwitch("sw0")
	dev := testType3(t)
	if err := sw.AddDownstream("dsp0", dev); err != nil {
		t.Fatal(err)
	}
	if err := sw.Bind("vppb0", "dsp0"); err != nil {
		t.Fatal(err)
	}
	if err := sw.RegisterSnooper("vppb0", snooperFunc(func(s BISnp) BIRsp {
		return BIRsp{Tag: s.Tag, Opcode: RspIHit}
	})); err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewFlightRecorder(64)
	RecordSnoops(sw, rec)
	if _, err := sw.Snoop("vppb0", BISnp{Tag: 7, Addr: 4096}); err != nil {
		t.Fatal(err)
	}
	dump := rec.Dump()
	var snp, rsp bool
	for _, r := range dump {
		switch r.Kind {
		case flitKindBISnp:
			snp = true
			if r.Addr != 4096 || r.Tag != 7 {
				t.Errorf("BISnp record %+v", r)
			}
		case flitKindBIRsp:
			rsp = true
		}
	}
	if !snp || !rsp {
		t.Fatalf("snoop capture incomplete: snp=%v rsp=%v (%d records)", snp, rsp, len(dump))
	}
	sw.SetSnoopTrace(nil)
	if _, err := sw.Snoop("vppb0", BISnp{Tag: 8, Addr: 8192}); err != nil {
		t.Fatal(err)
	}
	if got := rec.Recorded(); got != uint64(len(dump)) {
		t.Fatalf("trace still firing after removal: %d records", got)
	}
}

// snooperFunc adapts a function to the Snooper interface.
type snooperFunc func(BISnp) BIRsp

func (f snooperFunc) HandleBISnp(s BISnp) BIRsp { return f(s) }

// TestTelemetryUncorrectable checks the exhausted-retry path still
// reports the error and leaves forced records behind.
func TestTelemetryUncorrectable(t *testing.T) {
	rp, _ := burstPort(t, 1<<24)
	reg := telemetry.NewRegistry()
	rec := rp.EnableTelemetry(reg, TelemetryOptions{SampleN: 1 << 30, RecorderSlots: 64})
	rp.SetFault(func(f Flit) Flit {
		f.raw[20] ^= 0xFF // corrupt every flit: retries exhaust
		return f
	})
	var line [LineSize]byte
	err := rp.WriteLine(0, &line)
	if err == nil {
		t.Fatal("want uncorrectable error")
	}
	var pe *PortError
	if !errors.As(err, &pe) {
		t.Fatalf("error type %T", err)
	}
	// maxLinkRetries+1 attempts, every one force-recorded.
	if got := rec.Recorded(); got < maxLinkRetries+1 {
		t.Fatalf("recorded %d error flits, want >= %d", got, maxLinkRetries+1)
	}
}
