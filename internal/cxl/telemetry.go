package cxl

import (
	"encoding/binary"
	"strconv"
	"time"

	"cxlpmem/internal/telemetry"
)

// Telemetry attachment for the port data path.
//
// The design constraint is the CI-gated overhead budget: tier-1 benches
// with telemetry enabled must stay within 3% of disabled. Per-flit
// bookkeeping cannot meet that (a 4 KiB burst moves ~66 flits), so the
// port taps per *transaction*: the transaction's VC sequence number
// picks every N-th one, and only that sampled transaction pays the clock
// reads and rides the snapshot's sampled variant, whose recordAll flag
// makes pass record every flit into the flight recorder. Unsampled
// transactions ride the snapshot itself, which carries the recorder, at
// the cost of a mask test on the snapshot the transaction loads anyway;
// through it CRC-failed flits are force-recorded regardless of sampling
// (flitErr below), so the flight recorder never misses the wire history
// that health events are made of. With neither telemetry nor a fault
// hook installed the snapshot is nil.
//
// The snapshot and its sampled variant are built off the hot path:
// EnableTelemetry, DisableTelemetry and every SetFault swap rebuild them
// under rp.mu (publishHooksLocked), and the data path picks one with no
// allocation.

// DefaultSampleN is the default transaction sampling rate (1-in-N).
const DefaultSampleN = 64

// TelemetryOptions configures a port's telemetry attachment.
type TelemetryOptions struct {
	// SampleN samples every N-th transaction per VC (rounded up to a
	// power of two; 0 takes DefaultSampleN). 1 samples everything.
	SampleN int
	// RecorderSlots is the flight-recorder ring depth (0 takes
	// telemetry.DefaultRecorderSlots).
	RecorderSlots int
}

// tapConfig is the per-port telemetry wiring that survives hook swaps:
// the sampling mask, the flight recorder, and the latency histograms.
type tapConfig struct {
	mask     uint64
	rec      *telemetry.FlightRecorder
	latRead  *telemetry.Histogram
	latWrite *telemetry.Histogram
	latBurst *telemetry.Histogram
}

// histFor picks the latency histogram for a transaction's opcode.
func (t *tapConfig) histFor(op MemOpcode) *telemetry.Histogram {
	switch op {
	case OpMemRdBurst, OpMemWrBurst:
		return t.latBurst
	case OpMemRd:
		return t.latRead
	}
	return t.latWrite
}

// flitRecordOf peeks the flit header without validating it — kind and
// opcode bytes, tag, and address straight from the wire image. Cheap
// enough for the recording path; a corrupted flit yields a garbled
// record, which is exactly what should land in a flight recorder.
func flitRecordOf(f *Flit, errFlag bool) telemetry.FlitRecord {
	return telemetry.FlitRecord{
		Kind: f.raw[0],
		Op:   f.raw[1],
		Tag:  binary.LittleEndian.Uint16(f.raw[2:4]),
		Addr: binary.LittleEndian.Uint64(f.raw[8:16]),
		Err:  errFlag,
	}
}

// pass carries one flit across the modelled wire: the fault hook may
// corrupt it, then a sampled transaction records what arrives.
func (h *portHooks) pass(f *Flit) {
	if h.fault != nil {
		*f = h.fault(*f)
	}
	if h.recordAll {
		h.rec.Record(flitRecordOf(f, false))
	}
}

// flitErr force-records a CRC-failed flit, regardless of sampling. The
// retry loops call it on every failed decode; with telemetry off (nil
// hooks or no recorder) it is a nil check.
func (h *portHooks) flitErr(f *Flit) {
	if h != nil && h.rec != nil {
		h.rec.Record(flitRecordOf(f, true))
	}
}

// pick selects the hook variant for one transaction and, when the
// transaction is sampled, returns the histogram to record into and the
// start time. The sampling clock is the transaction's sequence number
// on its VC, already taken, so the unsampled fast path costs a mask
// test, no extra atomic traffic. h may be nil: no hooks, no telemetry.
func (h *portHooks) pick(seq uint64, op MemOpcode) (*portHooks, *telemetry.Histogram, time.Time) {
	// Phase-shifted so sequence number 0 — the first transaction on a
	// VC — is not unconditionally sampled at any rate.
	if h == nil || h.sampled == nil || (seq+1)&h.mask != 0 {
		return h, nil, time.Time{}
	}
	return h.sampled, h.histFor(op), time.Now()
}

// EnableTelemetry attaches the port to a registry: latency histograms
// (cxl_port_latency_ns, op=read|write|burst), a collector for the
// transaction and link counters (cxl_port_*_total and per-VC
// cxl_vc_*_total), and
// a flight recorder fed by sampled transactions' flits and every
// CRC-failed flit, per the policy above. Returns the recorder (also
// reachable via FlightRecorder). Call once per port per registry —
// registration is append-only.
func (rp *RootPort) EnableTelemetry(reg *telemetry.Registry, opts TelemetryOptions) *telemetry.FlightRecorder {
	n := uint64(DefaultSampleN)
	if opts.SampleN > 0 {
		n = uint64(opts.SampleN)
	}
	pow := uint64(1)
	for pow < n {
		pow <<= 1
	}
	port := telemetry.Labels("port", rp.name)
	cfg := &tapConfig{
		mask:     pow - 1,
		rec:      telemetry.NewFlightRecorder(opts.RecorderSlots),
		latRead:  reg.NewHistogram("cxl_port_latency_ns", telemetry.Labels("port", rp.name, "op", "read")),
		latWrite: reg.NewHistogram("cxl_port_latency_ns", telemetry.Labels("port", rp.name, "op", "write")),
		latBurst: reg.NewHistogram("cxl_port_latency_ns", telemetry.Labels("port", rp.name, "op", "burst")),
	}
	var vcLabels [NumVCs]string
	for i := range vcLabels {
		vcLabels[i] = telemetry.Labels("port", rp.name, "vc", strconv.Itoa(i))
	}
	reg.RegisterCollector(func(e *telemetry.Emitter) {
		st := rp.Stats()
		e.Counter("cxl_port_issued_total", port, st.Issued)
		e.Counter("cxl_port_retries_total", port, st.Retries)
		e.Counter("cxl_port_doorbells_total", port, st.Doorbells)
		e.Counter("cxl_port_timeouts_total", port, st.Timeouts)
		e.Counter("cxl_port_retrains_total", port, st.Retrains)
		for i := range st.VCs {
			e.Counter("cxl_vc_issued_total", vcLabels[i], st.VCs[i].Issued)
			e.Counter("cxl_vc_retries_total", vcLabels[i], st.VCs[i].Retries)
		}
	})
	rp.mu.Lock()
	rp.tapCfg = cfg
	rp.publishHooksLocked()
	rp.mu.Unlock()
	return cfg.rec
}

// DisableTelemetry detaches the data path from the telemetry plane (the
// registry keeps the registered metrics; they simply stop moving).
func (rp *RootPort) DisableTelemetry() {
	rp.mu.Lock()
	rp.tapCfg = nil
	rp.publishHooksLocked()
	rp.mu.Unlock()
}

// FlightRecorder returns the port's flight recorder, or nil when
// telemetry is not enabled.
func (rp *RootPort) FlightRecorder() *telemetry.FlightRecorder {
	if h := rp.hooks.Load(); h != nil {
		return h.rec
	}
	return nil
}

// RecordSnoops wires a switch's back-invalidate channel into a flight
// recorder: every BISnp/BIRsp flit crossing the switch is captured
// unconditionally (snoops are rare and diagnostic gold, so they are
// never sampled away).
func RecordSnoops(sw *Switch, rec *telemetry.FlightRecorder) {
	sw.SetSnoopTrace(func(f Flit) { rec.Record(flitRecordOf(&f, false)) })
}
