package cxl

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cxlpmem/internal/interconnect"
	"cxlpmem/internal/memdev"
)

// LinkState tracks root-port link training.
type LinkState int

const (
	// LinkDown — no endpoint attached or training failed.
	LinkDown LinkState = iota
	// LinkUp — training completed, transactions may flow.
	LinkUp
	// Retraining — the link dropped out of L0 and is renegotiating (a
	// link flap). The endpoint is still attached; new transactions park
	// until the retrain completes (bounded by PortOptions.RetrainTimeout)
	// and then replay, instead of failing.
	Retraining
)

func (s LinkState) String() string {
	switch s {
	case LinkUp:
		return "up"
	case Retraining:
		return "retraining"
	default:
		return "down"
	}
}

// Transaction model. The port exposes NumVCs virtual channels, mirroring
// the per-QoS-class request queues of a real CXL host bridge. A
// transaction's VC comes from its address: runs of vcStride consecutive
// lines share one (vcFor), the address-interleaved channel selection
// real memory controllers use, so sustained traffic spreads over every
// VC without a shared counter. Each VC owns a sequence counter. A
// transaction takes the next number with one atomic add; that number
// gives its wire tag (the VC index in the high bits, the sequence's low
// vcTagBits bits below) and the telemetry sampling clock. Two in-flight
// transactions differ in VC bits or sequence bits unless more than
// 2^vcTagBits are in flight on one VC at once. The transaction then
// moves its flits through one frame from framePool (transact).
const (
	// NumVCs is the number of virtual channels per port (power of two).
	NumVCs = 8
	// vcStride is how many consecutive lines share one VC.
	vcStride = 32
	// vcTagBits is the per-VC sequence width inside the 16-bit tag; the
	// top bits carry the VC index.
	vcTagBits = 13
	vcSeqMask = 1<<vcTagBits - 1
)

// portVC is one virtual channel's counters, padded apart so traffic on
// neighbouring VCs does not false-share.
type portVC struct {
	// seq is the next sequence number; it also counts issued
	// transactions.
	seq     atomic.Uint64
	retries atomic.Int64
	_       [48]byte
}

// VCStat is a snapshot of one virtual channel's counters.
type VCStat struct {
	Issued  int64
	Retries int64
}

// PortStats is one snapshot of a port's transaction and link counters.
type PortStats struct {
	// Issued counts transactions across all VCs.
	Issued int64
	// Retries counts link-level retransmissions across all VCs.
	Retries int64
	// Doorbells counts doorbells rung. Every transaction rings its own,
	// so it equals Issued.
	Doorbells int64
	// Timeouts counts transactions that parked on a retrain longer than
	// RetrainTimeout.
	Timeouts int64
	// Retrains counts LinkUp→Retraining transitions (link flaps).
	Retrains int64
	// VCs holds the per-virtual-channel issue/retry split.
	VCs [NumVCs]VCStat
}

// portHooks is the immutable snapshot of the port's per-flit hooks and
// telemetry, nil when neither is installed. The hot path loads it once
// per transaction, so the fault hook and telemetry can be swapped at
// runtime while traffic is in flight: every transaction sees either the
// old snapshot or the new one, never a torn mix.
type portHooks struct {
	fault func(Flit) Flit
	// tapConfig is the telemetry wiring, zero when telemetry is off. Its
	// recorder, when non-nil, force-captures CRC-failed flits regardless
	// of sampling (see telemetry.go).
	tapConfig
	// sampled is the variant a sampled transaction rides: this snapshot
	// with recordAll set, which makes pass record every flit into rec.
	// Nil when telemetry is off, and on the sampled variant itself.
	sampled   *portHooks
	recordAll bool
}

// portSession is the immutable snapshot of link training state: which
// endpoint is attached and whether the link is up. Attach/Detach
// publish a fresh snapshot; the data path reads it lock-free. ras, when
// non-nil, points at the attached endpoint's media counters so link
// CRC retries and exhausted-retry failures are attributed to the device
// they occurred against — the health thresholds' retry-storm input.
type portSession struct {
	state    LinkState
	endpoint Endpoint
	ras      *memdev.Stats
}

// retry charges one link-level retransmission to the issuing VC and to
// the attached device's RAS counters.
func (s *portSession) retry(vc *portVC) {
	vc.retries.Add(1)
	if s.ras != nil {
		s.ras.LinkRetries.Add(1)
	}
}

// uncorrectable charges an exhausted retry budget to the device.
func (s *portSession) uncorrectable() {
	if s.ras != nil {
		s.ras.Uncorrectable.Add(1)
	}
}

// RootPort is a host-side CXL port: the CPU's view of one PCIe/CXL slot.
// It owns the physical link, performs link training against an attached
// endpoint, and carries CXL.mem traffic to it. Every MemIO call is one
// synchronous transaction per line or burst (transact): the data path
// has no queue, so a call has completed at the device when it returns.
// Every request/response genuinely round-trips through the flit codec
// so protocol tests observe real wire behaviour; the steady-state data
// path allocates nothing and is safe for concurrent use by many
// goroutines.
//
// RootPort implements MemIO (memio.go).
type RootPort struct {
	name string
	link *interconnect.Link

	// mu serialises the cold path only: Attach/Detach, fault-hook swaps,
	// and telemetry attachment.
	mu    sync.Mutex
	sess  atomic.Pointer[portSession]
	hooks atomic.Pointer[portHooks]
	// fault and tapCfg are the cold fields hooks is built from (nil when
	// not installed), guarded by mu. See telemetry.go.
	fault  func(Flit) Flit
	tapCfg *tapConfig

	// cfg is the resolved PortOptions snapshot; the data path only loads
	// it on retry/park paths, never on a clean transaction.
	cfg atomic.Pointer[PortOptions]

	timeouts atomic.Int64
	retrains atomic.Int64
	vcs      [NumVCs]portVC
}

// maxLinkRetries is the default retransmission budget before the port
// reports an uncorrectable link error (PortOptions.MaxLinkRetries).
const maxLinkRetries = 3

// defaultRetrainTimeout bounds how long a transaction parks waiting for
// a retraining link before failing with ErrTimeout.
const defaultRetrainTimeout = 2 * time.Second

// PortOptions tunes the port's link-recovery behaviour. The zero value
// resolves to today's defaults: a budget of maxLinkRetries immediate
// retransmissions (no backoff) and a 2 s retrain deadline.
type PortOptions struct {
	// MaxLinkRetries is the per-flit retransmission budget before the
	// transaction fails with ErrUncorrectable (0 takes the default, 3;
	// negative means no retries).
	MaxLinkRetries int
	// RetryBackoff is the base delay before the first retransmission;
	// each further retry doubles it (bounded exponential backoff with
	// deterministic jitter). Zero preserves immediate retransmit.
	RetryBackoff time.Duration
	// RetryBackoffMax caps the backoff growth (0 with a nonzero
	// RetryBackoff takes 8× the base).
	RetryBackoffMax time.Duration
	// RetrainTimeout bounds how long transactions park on a Retraining
	// link before failing with ErrTimeout (0 takes 2 s).
	RetrainTimeout time.Duration
}

// resolve fills defaults into a copy of o.
func (o PortOptions) resolve() PortOptions {
	if o.MaxLinkRetries == 0 {
		o.MaxLinkRetries = maxLinkRetries
	} else if o.MaxLinkRetries < 0 {
		o.MaxLinkRetries = 0
	}
	if o.RetryBackoff > 0 && o.RetryBackoffMax <= 0 {
		o.RetryBackoffMax = 8 * o.RetryBackoff
	}
	if o.RetrainTimeout <= 0 {
		o.RetrainTimeout = defaultRetrainTimeout
	}
	return o
}

// SetOptions publishes new link-recovery options. Safe while traffic is
// in flight: each retry loop reads the snapshot current when it entered
// its error path.
func (rp *RootPort) SetOptions(o PortOptions) {
	r := o.resolve()
	rp.cfg.Store(&r)
}

// Options returns the resolved options in effect.
func (rp *RootPort) Options() PortOptions { return *rp.cfg.Load() }

// backoff sleeps the bounded-exponential retry delay for the given
// attempt. The jitter (±25%) is a pure function of (addr, attempt), so
// a replayed fault schedule waits the identical curve. With no backoff
// configured this is a single field load.
func (rp *RootPort) backoff(cfg *PortOptions, attempt int, addr uint64) {
	if cfg.RetryBackoff <= 0 {
		return
	}
	d := cfg.RetryBackoff << uint(attempt)
	if d <= 0 || d > cfg.RetryBackoffMax {
		d = cfg.RetryBackoffMax
	}
	// Deterministic jitter: hash the (addr, attempt) pair into [-25%, +25%).
	h := addr*0x9e3779b97f4a7c15 + uint64(attempt)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 29
	jitter := int64(d) / 4
	if jitter > 0 {
		d += time.Duration(int64(h%uint64(2*jitter)) - jitter)
	}
	time.Sleep(d)
}

// maxBurstBytes is the payload of a maximal burst (4 KiB).
const maxBurstBytes = MaxBurstLines * LineSize

// frame is one transaction's state on the modelled link: the flit in
// flight, the request the request flit decodes into, which the device
// serves from, the line a MemRd fills, and for a burst chunk the
// staging its data beats cross to and from, the receive side of the
// wire. Each transaction takes one from framePool, so every byte it
// moves crosses each hop once and the steady-state path allocates
// nothing. The port owns the frame for the transaction; an endpoint's
// serve uses it only until it returns.
type frame struct {
	f    Flit
	req  MemReq
	line [LineSize]byte
	// wire is a burst chunk's payload, in buf; nil for a line op.
	wire []byte
	buf  [maxBurstBytes]byte
}

var framePool = sync.Pool{New: func() any { return new(frame) }}

// NewRootPort builds a root port over the given physical link.
func NewRootPort(name string, link *interconnect.Link) *RootPort {
	rp := &RootPort{name: name, link: link}
	cfg := PortOptions{}.resolve()
	rp.cfg.Store(&cfg)
	return rp
}

// Stats returns a snapshot of the port's transaction and link counters.
func (rp *RootPort) Stats() PortStats {
	st := PortStats{Timeouts: rp.timeouts.Load(), Retrains: rp.retrains.Load()}
	for i := range rp.vcs {
		issued := int64(rp.vcs[i].seq.Load())
		retries := rp.vcs[i].retries.Load()
		st.VCs[i] = VCStat{Issued: issued, Retries: retries}
		st.Issued += issued
		st.Retries += retries
	}
	st.Doorbells = st.Issued
	return st
}

// Name returns the port name.
func (rp *RootPort) Name() string { return rp.name }

// Link returns the physical link.
func (rp *RootPort) Link() *interconnect.Link { return rp.link }

// State returns the link state.
func (rp *RootPort) State() LinkState {
	if s := rp.sess.Load(); s != nil {
		return s.state
	}
	return LinkDown
}

// Endpoint returns the attached endpoint, or nil.
func (rp *RootPort) Endpoint() Endpoint {
	if s := rp.sess.Load(); s != nil {
		return s.endpoint
	}
	return nil
}

// SetFault installs (or, with nil, removes) the port's one per-flit
// hook: it sees every flit the port moves and returns the flit to
// deliver, so it may corrupt one in flight (fault injection) or just
// observe it (a hook that returns its input). The link-level retry
// state machine detects a CRC failure and retransmits, as CXL's LRSM
// does. Safe to call while traffic is in flight: transactions already
// issued keep the hook snapshot they started with.
func (rp *RootPort) SetFault(f func(Flit) Flit) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	rp.fault = f
	rp.publishHooksLocked()
}

// publishHooksLocked rebuilds the hook snapshot from the fault hook and
// the telemetry wiring, and its sampled variant when telemetry is on.
// Callers hold rp.mu.
func (rp *RootPort) publishHooksLocked() {
	if rp.fault == nil && rp.tapCfg == nil {
		rp.hooks.Store(nil)
		return
	}
	h := &portHooks{fault: rp.fault}
	if rp.tapCfg != nil {
		h.tapConfig = *rp.tapCfg
		sampled := *h
		sampled.recordAll = true
		h.sampled = &sampled
	}
	rp.hooks.Store(h)
}

// Attach trains the link against ep. Training succeeds only if the
// endpoint's config space carries a valid CXL DVSEC (alternate-protocol
// negotiation: a plain PCIe card would not present one).
func (rp *RootPort) Attach(ep Endpoint) error {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if s := rp.sess.Load(); s != nil && s.endpoint != nil {
		return fmt.Errorf("cxl: %s: port already has endpoint %s", rp.name, s.endpoint.Name())
	}
	if ep == nil {
		return fmt.Errorf("cxl: %s: nil endpoint", rp.name)
	}
	dvsec, ok := ep.Config().FindCXLDVSEC()
	if !ok {
		return fmt.Errorf("cxl: %s: endpoint %s has no CXL DVSEC; link training failed", rp.name, ep.Name())
	}
	if dvsec.Caps&CapIO == 0 {
		return fmt.Errorf("cxl: %s: endpoint %s does not advertise CXL.io", rp.name, ep.Name())
	}
	sess := &portSession{state: LinkUp, endpoint: ep}
	// Resolve the retry-attribution sink once, at training time: link
	// errors on this port are charged to the media behind the endpoint.
	if md, ok := ep.(interface{ Media() memdev.Device }); ok {
		if media := md.Media(); media != nil {
			sess.ras = media.Stats()
		}
	}
	rp.sess.Store(sess)
	return nil
}

// Detach brings the link down and releases the endpoint. A transaction
// already in flight finishes against the session it loaded, one parked
// on a retrain unblocks with ErrLinkDown, and every later one fails
// with ErrLinkDown.
func (rp *RootPort) Detach() {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	rp.sess.Store(&portSession{state: LinkDown})
}

// StartRetrain takes a trained link out of L0 into Retraining (a link
// flap): the endpoint stays attached, new transactions park until
// CompleteRetrain. Errors if the link is not up.
func (rp *RootPort) StartRetrain() error {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	s := rp.sess.Load()
	if s == nil || s.state != LinkUp || s.endpoint == nil {
		return portErr(rp.name, "Retrain", 0, ErrLinkDown, "link not up")
	}
	next := *s
	next.state = Retraining
	rp.sess.Store(&next)
	rp.retrains.Add(1)
	return nil
}

// CompleteRetrain finishes a retrain: back to LinkUp on success, or
// LinkDown on failure, which unblocks every parked transaction with
// ErrLinkDown, as Detach does. A no-op unless the link is Retraining.
func (rp *RootPort) CompleteRetrain(up bool) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	s := rp.sess.Load()
	if s == nil || s.state != Retraining {
		return
	}
	if !up {
		rp.sess.Store(&portSession{state: LinkDown})
		return
	}
	next := *s
	next.state = LinkUp
	rp.sess.Store(&next)
}

// awaitRetrain parks until a Retraining link settles: the LinkUp
// session to replay against, ErrLinkDown if training failed, or
// ErrTimeout after RetrainTimeout (the flap never ended).
func (rp *RootPort) awaitRetrain() (*portSession, error) {
	deadline := time.Now().Add(rp.cfg.Load().RetrainTimeout)
	for {
		s := rp.sess.Load()
		if s == nil || s.state == LinkDown || s.endpoint == nil {
			return nil, ErrLinkDown
		}
		if s.state == LinkUp {
			return s, nil
		}
		if time.Now().After(deadline) {
			rp.timeouts.Add(1)
			return nil, ErrTimeout
		}
		time.Sleep(5 * time.Microsecond)
	}
}

// session returns the hot-path link snapshot, or the sentinel error
// when the link is down. A Retraining link parks (bounded) and replays.
func (rp *RootPort) session() (*portSession, error) {
	s := rp.sess.Load()
	if s != nil && s.state == Retraining {
		return rp.awaitRetrain()
	}
	if s == nil || s.state != LinkUp || s.endpoint == nil {
		return nil, ErrLinkDown
	}
	return s, nil
}

// vcFor returns the index of the VC that carries a transaction at hpa.
func vcFor(hpa uint64) uint64 { return hpa / uint64(LineSize*vcStride) & (NumVCs - 1) }

// transact is the port's one transaction path. It takes the next
// sequence number on addr's VC, loads the session and hook snapshots,
// and moves the transaction's flits through a pooled frame: a burst of
// b's lines, or else one line op (MemRd into p, MemWr or MemWrPtl of p
// placed at byte lo of the line).
func (rp *RootPort) transact(op MemOpcode, addr, mask uint64, p []byte, lo int, b *burst) error {
	i := vcFor(addr)
	vc := &rp.vcs[i]
	seq := vc.seq.Add(1) - 1
	s, err := rp.session()
	if err != nil {
		return portErr(rp.name, op.String(), addr, err, err.Error())
	}
	hk, hist, t0 := rp.hooks.Load().pick(seq, op)
	m := wireMsg{
		op:   op,
		lo:   uint8(lo),
		tag:  uint16(i)<<vcTagBits | uint16(seq)&vcSeqMask,
		seq:  uint32(seq),
		addr: addr,
		mask: mask,
	}
	fr := framePool.Get().(*frame)
	if b != nil {
		err = rp.moveBurst(s, hk, vc, fr, m, b)
	} else {
		err = rp.moveLine(s, hk, vc, fr, m, p)
	}
	framePool.Put(fr)
	if hist != nil {
		hist.RecordSince(t0)
	}
	return err
}

// moveLine moves one line transaction through fr: the request flit,
// carrying a write's payload, decodes into fr.req; the device serves
// it from fr; then a read's line crosses from fr.line into p as one
// data flit, or the status-only completion crosses as one response
// flit. m arrives by value so that pointing it at p keeps p off the
// heap.
func (rp *RootPort) moveLine(s *portSession, hk *portHooks, vc *portVC, fr *frame, m wireMsg, p []byte) error {
	op, tag := m.op, m.tag
	m.kind = flitKindReq
	if op != OpMemRd {
		m.data = p
	}
	if err := rp.move(s, hk, vc, fr, &m); err != nil {
		return err
	}
	fr.wire = nil
	st := s.endpoint.serve(fr)
	if op == OpMemRd && st == RespMemData {
		m.kind, m.src, m.dst = flitKindData, &fr.line, (*[LineSize]byte)(p)
		return rp.move(s, hk, vc, fr, &m)
	}
	m.kind, m.resp, m.tag = flitKindResp, st, fr.req.Tag
	if err := rp.move(s, hk, vc, fr, &m); err != nil {
		return err
	}
	return rp.respErr(op, m.addr, tag, m.tag, m.resp)
}

// wireMsg is one CXL.mem message crossing the modelled link, held as
// plain values: kind selects which fields the flit encodes and where
// the receiver's decoded form lands (a request always decodes into the
// frame's req). A transaction keeps one on its stack and updates only
// what the next flit needs. The mover takes neither closures nor type
// parameters: either would move the flit to the heap.
type wireMsg struct {
	kind uint8      // flitKindReq, -Resp or -Data
	op   MemOpcode  // the transaction's opcode; with addr it names errors
	resp RespOpcode // response status; a response decodes it and tag back
	lo   uint8      // where a request's data starts in its line
	tag  uint16     // a data flit must arrive with the tag and seq it was sent with
	// lines is a burst header's data-flit count.
	lines uint16
	seq   uint32
	addr  uint64
	mask  uint64
	data  []byte          // a request's payload bytes; nil sends zeros
	src   *[LineSize]byte // a data flit's payload
	dst   *[LineSize]byte // where a data flit's payload lands
}

// errSeqMismatch is the receiver's NAK cause for a data flit that
// arrived intact with the wrong tag or sequence number: a reordered
// delivery.
var errSeqMismatch = &ErrFlit{Reason: "data flit tag/sequence mismatch"}

// move carries one message across the link in fr.f with link-level
// retry, as CXL's LRSM does: encode and seal, pass the flit through the
// hook snapshot the transaction was issued with (fault hook, sampled
// recording), then check and decode it at the receiver. The codec runs
// inline (see protocol.go): a clean flit costs two checksums and the
// hook. A flit that fails its CRC or arrives out of sequence is
// force-recorded (flitErr) and NAKed, and the sender retransmits it
// from its retry buffer after the configured backoff. Retries are
// charged to the issuing VC and the attached device; an exhausted
// budget fails the transaction with ErrUncorrectable, naming m.op at
// m.addr.
func (rp *RootPort) move(s *portSession, h *portHooks, vc *portVC, fr *frame, m *wireMsg) error {
	f := &fr.f
	for attempt := 0; ; attempt++ {
		switch m.kind {
		case flitKindReq:
			putReq(f, m.op, m.tag, m.lines, m.addr, m.mask, int(m.lo), m.data)
		case flitKindData:
			putData(f, m.tag, m.seq, m.src)
		default:
			putResp(f, m.resp, m.tag, nil)
		}
		f.seal()
		if h != nil {
			h.pass(f)
		}
		var err error
		if !f.intact() {
			err = errChecksum
		} else {
			switch m.kind {
			case flitKindReq:
				if !getReq(&fr.req, f) {
					err = badFlit(f, flitKindReq)
				}
			case flitKindData:
				if tag, seq, ok := getData(m.dst, f); !ok {
					err = badFlit(f, flitKindData)
				} else if tag != m.tag || seq != m.seq {
					err = errSeqMismatch
				}
			default:
				if op, tag, ok := getResp(f); !ok {
					err = badFlit(f, flitKindResp)
				} else {
					m.resp, m.tag = op, tag
				}
			}
		}
		if err == nil {
			return nil
		}
		h.flitErr(f)
		cfg := rp.cfg.Load()
		if attempt >= cfg.MaxLinkRetries {
			s.uncorrectable()
			return rp.linkFail(m, err)
		}
		s.retry(vc)
		rp.backoff(cfg, attempt, m.addr)
	}
}

// linkFail is m's uncorrectable link error once its last retry failed
// with err.
func (rp *RootPort) linkFail(m *wireMsg, err error) error {
	return portErr(rp.name, m.op.String(), m.addr, ErrUncorrectable,
		"uncorrectable link error on "+flitKindNames[m.kind]+" flit: "+err.Error())
}

// respErr checks a completion that crossed the link intact against the
// transaction it answers: the device must echo its tag, reads complete
// with data and everything else with Cmp.
func (rp *RootPort) respErr(op MemOpcode, addr uint64, tag, got uint16, status RespOpcode) error {
	if got != tag {
		return portErr(rp.name, op.String(), addr, ErrTagMismatch, "completion tag mismatch")
	}
	want := RespCmp
	if op == OpMemRd || op == OpMemRdBurst {
		want = RespMemData
	}
	if status != want {
		return portErr(rp.name, op.String(), addr, ErrBadResponse, "response "+status.String())
	}
	return nil
}

// --- MemIO: line transactions --------------------------------------------

// ReadLine fetches the 64-byte line at hpa.
func (rp *RootPort) ReadLine(hpa uint64, out *[LineSize]byte) error {
	if !lineAligned(hpa) {
		return portErr(rp.name, "MemRd", hpa, ErrUnaligned, "unaligned")
	}
	return rp.transact(OpMemRd, hpa, 0, out[:], 0, nil)
}

// WriteLine stores a full 64-byte line at hpa.
func (rp *RootPort) WriteLine(hpa uint64, data *[LineSize]byte) error {
	if !lineAligned(hpa) {
		return portErr(rp.name, "MemWr", hpa, ErrUnaligned, "unaligned")
	}
	return rp.transact(OpMemWr, hpa, 0, data[:], 0, nil)
}

// writePartial issues one MemWrPtl for the sub-line [lo, lo+len(p)) of
// the line at base; the request flit carries p at byte lo.
func (rp *RootPort) writePartial(base uint64, lo int, p []byte) error {
	mask := (uint64(1)<<len(p) - 1) << lo // all ones when len(p) == LineSize
	return rp.transact(OpMemWrPtl, base, mask, p, lo, nil)
}

// --- Burst transactions --------------------------------------------------
//
// A burst moves up to MaxBurstLines cache lines under one header flit,
// mirroring CXL's all-data-flit streaming: header, N data beats, one
// completion. Every beat still crosses the modelled wire individually —
// fault injection, tracing and CRC/retry fire per flit — but the
// endpoint services the whole burst with a single HDM access, so bulk
// transfers cost O(bytes) instead of O(lines × codec round trips).
// A burst is one transaction: one sequence number and one tag for all
// its chunks.
//
// Addressing semantics follow the endpoint's HDM decoder, as on real
// hardware. Through a plain decoder a burst covers the contiguous HPA
// span [hpa, hpa+len). Through an *interleaved* decoder it covers the
// next len/LineSize lines *owned by that target* starting at hpa —
// the device never sees other targets' granules, so Lines counts its
// own (see Type3Device.HandleMemBurst). A host talking to one leg of an
// interleave set must therefore be interleave-aware: use
// InterleaveSet, which performs the granule fan-out and hands each
// port exactly its owned lines, rather than issuing HPA-contiguous
// bursts at an interleaved window directly.

// burst says where a burst's lines sit in the caller's buffer p, which
// is HPA-contiguous from the transaction's address: in runs of run
// bytes, each gap bytes past the end of the one before. A plain burst
// is one run. The cursor off is the next line's offset in p and left
// the bytes still to go in its run; n counts the bytes still to move.
type burst struct {
	p                      []byte
	off, left, run, gap, n int
}

// WriteBurst stores p at the line-aligned HPA hpa using burst
// transactions; len(p) must be a multiple of LineSize.
func (rp *RootPort) WriteBurst(hpa uint64, p []byte) error {
	if !lineAligned(hpa) || len(p)%LineSize != 0 {
		return portErr(rp.name, "MemWrBurst", hpa, ErrUnaligned, "unaligned burst")
	}
	if len(p) == 0 {
		return nil
	}
	return rp.transact(OpMemWrBurst, hpa, 0, nil, 0, &burst{p: p, left: len(p), n: len(p)})
}

// ReadBurst fetches len(p) bytes from the line-aligned HPA hpa using
// burst transactions; len(p) must be a multiple of LineSize.
func (rp *RootPort) ReadBurst(hpa uint64, p []byte) error {
	if !lineAligned(hpa) || len(p)%LineSize != 0 {
		return portErr(rp.name, "MemRdBurst", hpa, ErrUnaligned, "unaligned burst")
	}
	if len(p) == 0 {
		return nil
	}
	return rp.transact(OpMemRdBurst, hpa, 0, nil, 0, &burst{p: p, left: len(p), n: len(p)})
}

// legBurst moves n bytes of an interleave leg's owned lines as one
// burst transaction at hpa, the HPA of the first. p is the caller's
// buffer from that line on; the owned lines sit in it in runs of run
// bytes, gap bytes apart, the first of them head bytes long. Each write
// beat encodes from its place in p and each read beat decodes into it,
// so no staging copy sits between p and the wire.
func (rp *RootPort) legBurst(write bool, hpa uint64, p []byte, n, head, run, gap int) error {
	op := OpMemRdBurst
	if write {
		op = OpMemWrBurst
	}
	return rp.transact(op, hpa, 0, nil, 0, &burst{p: p, left: head, run: run, gap: gap, n: n})
}

// moveBurst streams one burst in ≤maxBurstBytes chunks through fr,
// reusing its tag for every chunk (chunks are strictly sequential, so
// the tag is never ambiguous in flight). Each chunk is addressed at its
// first line.
func (rp *RootPort) moveBurst(s *portSession, hk *portHooks, vc *portVC, fr *frame, m wireMsg, b *burst) error {
	base := m.addr
	for b.n > 0 {
		n := min(b.n, maxBurstBytes)
		m.addr = base + uint64(b.off)
		if err := rp.burstChunk(s, hk, vc, fr, &m, b, n); err != nil {
			return err
		}
		b.n -= n
	}
	return nil
}

// burstChunk moves the next n ≤ maxBurstBytes bytes of b as one chunk
// at m.addr: the header flit (decoded into fr.req), the data beats
// (before the device for a write, after the completion for a read),
// the device's single media access and the completion flit. The beats
// cross between b's lines and fr.wire, which the device accesses.
func (rp *RootPort) burstChunk(s *portSession, hk *portHooks, vc *portVC, fr *frame, m *wireMsg, b *burst, n int) error {
	tag := m.tag
	m.kind, m.lines = flitKindReq, uint16(n/LineSize)
	if err := rp.move(s, hk, vc, fr, m); err != nil {
		return err
	}
	fr.wire = fr.buf[:n]
	write := m.op == OpMemWrBurst
	var err error
	if write {
		err = rp.moveBeats(s, hk, vc, fr, m, b)
	}
	if err == nil {
		st := s.endpoint.serve(fr)
		m.kind, m.resp, m.tag = flitKindResp, st, fr.req.Tag
		if err = rp.move(s, hk, vc, fr, m); err == nil {
			err = rp.respErr(m.op, m.addr, tag, m.tag, m.resp)
		}
	}
	if err == nil && !write {
		err = rp.moveBeats(s, hk, vc, fr, m, b)
	}
	return err
}

// moveBeats moves a chunk's data beats, one flit per line in sequence
// order, between fr.wire and b's lines from its cursor on: from the
// lines into the wire for a write, from the wire into them for a read.
// Each run's lines go through the inner loop, and the cursor moves once
// per run.
func (rp *RootPort) moveBeats(s *portSession, hk *portHooks, vc *portVC, fr *frame, m *wireMsg, b *burst) error {
	m.kind, m.seq = flitKindData, 0
	read := m.op == OpMemRdBurst
	for wire := fr.wire; len(wire) > 0; {
		n := min(b.left, len(wire))
		src, dst := b.p[b.off:b.off+n], wire[:n]
		if read {
			src, dst = dst, src
		}
		for i := 0; i < n; i += LineSize {
			m.src = (*[LineSize]byte)(src[i:])
			m.dst = (*[LineSize]byte)(dst[i:])
			if err := rp.move(s, hk, vc, fr, m); err != nil {
				return err
			}
			m.seq++
		}
		wire = wire[n:]
		b.off += n
		if b.left -= n; b.left == 0 {
			b.off, b.left = b.off+b.gap, b.run
		}
	}
	return nil
}

// ReadAt copies len(p) bytes from HPA off, split by readAt.
func (rp *RootPort) ReadAt(p []byte, off int64) error { return readAt(rp, p, off) }

// readPartial fills p from offset lo of the line at base, staged
// through a line on the stack.
func (rp *RootPort) readPartial(base uint64, lo int, p []byte) error {
	var line [LineSize]byte
	err := rp.ReadLine(base, &line)
	copy(p, line[lo:])
	return err
}

// WriteAt stores p at HPA off, split by writeAt.
func (rp *RootPort) WriteAt(p []byte, off int64) error { return writeAt(rp, p, off) }
