package cxl

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Submission/completion rings: the io_uring-shaped small-op data path
// under every RootPort.
//
// Every virtual channel owns one SQ/CQ ring pair. The port's
// synchronous MemIO methods are submit+flush+wait over these rings, so
// there is exactly one data path through a port; RootPort also exposes
// the ring directly (SubmitRead/SubmitWrite, Flush, Harvest) for the
// ring tests and benchmarks. Callers enqueue fixed-size descriptors
// into the SQ lock-free. A doorbell (Flush, or the first waiter) claims
// the queued span with a single CAS and moves the whole batch across
// the link in one VC acquisition: session and hook snapshots are loaded
// once, header-only submissions pack four to a CRC-protected flit (see
// flitKindSQ), data-bearing messages ride one flit per line, the
// endpoint services the decoded batch through one HandleMemQueue call
// (coalescing adjacent lines into single media accesses), and
// completions return packed four to a flit. Per-flit CRC/retry/fault
// semantics are those of a lone transaction — a fault injected on one
// descriptor's flit retries that flit alone and never disturbs the rest
// of the batch.
//
// Ring discipline (slot states are per-position sequence numbers, the
// classic bounded-MPMC scheme, so wraparound is explicit and tested):
//
//	seq == pos            free: a producer may claim position pos
//	seq == pos+1          published: descriptor written, awaiting flush
//	seq == pos+2          done: completion filled in, awaiting consumption
//	seq == pos+3          claimed: a waiter is reading the outcome
//	seq == pos+RingSlots  consumed: free for the next lap's producer
//
// Head (flushHead) and tail are published with atomics; flushers claim
// disjoint [head, tail) spans by CAS, so concurrent submitters on one
// VC flush in parallel without a lock on the hot path. Every completion
// is consumed exactly once — Wait the token or drain it via Harvest;
// both consume by CAS on the slot's done state, so when they race
// exactly one wins and the loser's Wait reports ErrConsumed. A
// submission stream that consumes neither eventually fills the ring and
// Submit* reports ErrRingFull.
const (
	// RingSlots is the per-VC submission-queue depth (power of two).
	RingSlots = 64
	ringMask  = RingSlots - 1
	// cqSlots is the per-VC completion-queue depth. Twice the SQ depth
	// absorbs entries left behind by Wait-consumed tokens (they are
	// dropped lazily; see postLocked).
	cqSlots = 2 * RingSlots
	cqMask  = cqSlots - 1
	// vcStride is how many consecutive lines share one VC in the
	// address-based dispatch (ringFor): batches of neighbouring
	// submissions stay VC-local (one doorbell, device-side run
	// coalescing) while sustained load still spreads across all NumVCs
	// rings.
	vcStride = 32
)

// descriptor kinds.
const (
	descLine  = uint8(iota) // MemRd / MemWr / MemWrPtl / MemInv
	descBurst               // MemRdBurst / MemWrBurst over d.p
)

// ringDesc is one fixed-size submission-queue descriptor.
type ringDesc struct {
	op   MemOpcode
	kind uint8
	// noCQ suppresses the CQ record: synchronous submissions are always
	// consumed by their waiter, so posting them would only leave stale
	// entries for Harvest to skip (io_uring's CQE-skip, applied to the
	// whole sync path).
	noCQ bool
	addr uint64
	mask uint64          // MemWrPtl byte mask
	out  *[LineSize]byte // MemRd destination (caller-owned, live until consumption)
	p    []byte          // burst payload (caller-owned, live until consumption)
	data [LineSize]byte  // MemWr/MemWrPtl payload, staged at submit
}

// Completion is a completion token: submission returns one, and the
// caller consumes it exactly once — Wait, or implicitly by draining it
// with Harvest. The token is a value naming its ring position; the
// outcome lives in the ring slot, so the steady state allocates
// nothing, and a token whose slot was already consumed can never read a
// later lap's descriptor.
type Completion struct {
	ring *vcRing
	pos  uint64
}

// Tag returns the wire tag the descriptor carried.
func (c Completion) Tag() uint16 { return c.ring.tagAt(c.pos) }

// Wait blocks until the descriptor completes (flushing its ring if
// nobody else has rung the doorbell yet) and returns the transaction's
// error. It consumes the token; if Harvest consumed it first, Wait
// returns an error wrapping ErrConsumed and the outcome is the one
// Harvest delivered.
func (c Completion) Wait() error { return c.WaitTimeout(0) }

// WaitTimeout is Wait with a per-descriptor deadline. On expiry it
// returns ErrTimeout and abandons the token: whoever eventually
// completes the descriptor consumes the slot, so the ring keeps
// cycling. The transaction's real outcome is then unknown and its
// completion is discarded (it never surfaces through Harvest either);
// the caller decides whether to requeue the operation or fail. A
// non-positive d degenerates to Wait.
func (c Completion) WaitTimeout(d time.Duration) error {
	r := c.ring
	slot := &r.slots[c.pos&ringMask]
	if slot.seq.Load() < c.pos+2 {
		r.rp.flushVC(r)
		var deadline time.Time
		if d > 0 {
			deadline = time.Now().Add(d)
		}
		for slot.seq.Load() < c.pos+2 {
			if d > 0 && time.Now().After(deadline) {
				return c.abandon(slot)
			}
			runtime.Gosched()
		}
	}
	if ok, err := c.take(slot); ok {
		return err
	}
	return portErr(r.rp.name, "Wait", 0, ErrConsumed, fmt.Sprintf("completion tag %#x already consumed", c.Tag()))
}

// take claims the done slot (pos+2 → pos+3) so no other consumer and
// no next-lap producer can touch it, reads the outcome, then frees the
// slot. It reports false when another consumer got there first.
func (c Completion) take(slot *sqSlot) (bool, error) {
	if !slot.seq.CompareAndSwap(c.pos+2, c.pos+3) {
		return false, nil
	}
	err := slot.err
	slot.seq.Store(c.pos + RingSlots)
	return true, err
}

// abandon marks the slot so its completer self-consumes it, then
// double-checks for a completion that raced the deadline — if one
// landed, it is claimed as a normal wait would.
func (c Completion) abandon(slot *sqSlot) error {
	slot.abandoned.Store(c.pos + 1)
	if slot.seq.Load() >= c.pos+2 {
		if ok, err := c.take(slot); ok {
			slot.abandoned.CompareAndSwap(c.pos+1, 0)
			return err
		}
		// Someone else consumed it (the completer's abandoned sweep);
		// clear our mark if it is still ours.
		slot.abandoned.CompareAndSwap(c.pos+1, 0)
	}
	rp := c.ring.rp
	rp.timeouts.Add(1)
	return portErr(rp.name, "WaitTimeout", 0, ErrTimeout, "descriptor deadline exceeded; completion abandoned")
}

// Completed is one harvested completion-queue entry.
type Completed struct {
	// Tag is the wire tag of the completed descriptor.
	Tag uint16
	// Op is the submitted opcode.
	Op MemOpcode
	// Addr is the descriptor's HPA.
	Addr uint64
	// Err is the transaction outcome (nil on success).
	Err error
}

// cqRec is one CQ ring entry: the public record plus the slot position
// whose consumption it drives.
type cqRec struct {
	c   Completed
	pos uint64
}

// sqSlot is one SQ ring slot: the descriptor, its outcome, and the
// position-based state word. abandoned carries pos+1 when the waiter
// for that position gave up (WaitTimeout); the completer consumes such
// a slot itself so the ring never wedges on a departed waiter. The
// value is generation-tagged (not a bool) so a stale mark from a
// previous lap can never discard a live descriptor.
type sqSlot struct {
	seq       atomic.Uint64
	abandoned atomic.Uint64
	err       error
	desc      ringDesc
}

// vcRing is one virtual channel's SQ/CQ pair plus its per-VC counters
// (the successor of the PR-2 virtualChannel: the tag sequence is now
// the ring position). Hot-path words are padded apart so producer,
// flusher and stats traffic do not false-share.
type vcRing struct {
	rp  *RootPort
	idx uint32
	_   [48]byte
	// tail is the next SQ position a producer claims.
	tail atomic.Uint64
	_    [56]byte
	// flushHead is the start of the next flush claim; [flushHead, tail)
	// is the queued-but-unclaimed span.
	flushHead atomic.Uint64
	_         [56]byte
	retries   atomic.Int64
	overflows atomic.Int64
	_         [48]byte

	// cqMu guards the completion queue; it is taken once per flushed
	// batch and once per Harvest call, never per descriptor. cqN mirrors
	// cqTail-cqHead (maintained under cqMu, read racily) so Harvest can
	// skip empty rings without taking their locks.
	cqMu   sync.Mutex
	cqHead uint64
	cqTail uint64
	cqN    atomic.Int64
	cq     [cqSlots]cqRec

	slots [RingSlots]sqSlot
}

func (r *vcRing) init(rp *RootPort, idx int) {
	r.rp = rp
	r.idx = uint32(idx)
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
}

// tagAt derives a descriptor's wire tag from its ring position: VC
// index in the high bits, the position's low bits as the sequence. Two
// in-flight descriptors always differ in VC bits or sequence bits
// (RingSlots ≪ 2^vcTagBits), across any number of ring laps.
func (r *vcRing) tagAt(pos uint64) uint16 {
	return uint16(r.idx)<<vcTagBits | uint16(pos)&vcSeqMask
}

// claim reserves the next SQ position, reporting false when the
// slot's previous-lap occupant has not been consumed (the ring is full).
func (r *vcRing) claim() (uint64, *sqSlot, bool) {
	for {
		t := r.tail.Load()
		slot := &r.slots[t&ringMask]
		seq := slot.seq.Load()
		if seq != t {
			if seq < t {
				return 0, nil, false
			}
			continue // tail moved under us; reload
		}
		if r.tail.CompareAndSwap(t, t+1) {
			return t, slot, true
		}
	}
}

// fill writes a claimed slot's descriptor; data is staged by value, so
// the caller's buffer may be reused at once.
func (d *ringDesc) fill(kind uint8, noCQ bool, op MemOpcode, addr, mask uint64, out, data *[LineSize]byte, p []byte) {
	d.kind, d.noCQ, d.op, d.addr, d.mask, d.out, d.p = kind, noCQ, op, addr, mask, out, p
	if data != nil {
		d.data = *data
	}
}

// publish hands the filled descriptor at position t to the flushers.
func (r *vcRing) publish(slot *sqSlot, t uint64) { slot.seq.Store(t + 1) }

// complete stores a descriptor's outcome and publishes the done state.
// The CQ record is posted separately (postLocked) so a batch pays one
// lock, not one per descriptor. A slot whose waiter abandoned it
// (WaitTimeout expired) is consumed on the spot: the waiter is gone,
// and its stale CQ record, if any, will be skipped by Harvest.
func (r *vcRing) complete(slot *sqSlot, pos uint64, err error) {
	slot.err = err
	slot.seq.Store(pos + 2)
	if slot.abandoned.Load() == pos+1 && slot.seq.CompareAndSwap(pos+2, pos+RingSlots) {
		slot.abandoned.CompareAndSwap(pos+1, 0)
	}
}

// postLocked appends completion records to the CQ under cqMu. A full CQ
// first drops entries whose slots were already consumed via Wait
// (stale, silent), then — only if genuinely out of space — drops the
// oldest live entry and counts the overflow, io_uring style: the ring
// never blocks on an unharvested CQ.
func (r *vcRing) postLocked(recs []cqRec) {
	r.cqMu.Lock()
	// Make room up front (rare): evict until the whole batch fits, so
	// the common full-space case pays no per-record capacity check.
	for int(r.cqTail-r.cqHead) > cqSlots-len(recs) {
		old := &r.cq[r.cqHead&cqMask]
		if r.slots[old.pos&ringMask].seq.Load() == old.pos+2 {
			r.overflows.Add(1)
		}
		old.c.Err = nil
		r.cqHead++
	}
	for i := range recs {
		r.cq[r.cqTail&cqMask] = recs[i]
		r.cqTail++
	}
	r.cqN.Store(int64(r.cqTail - r.cqHead))
	r.cqMu.Unlock()
}

// finish completes one descriptor and posts its CQ record (the
// single-descriptor form of complete+postLocked).
func (r *vcRing) finish(slot *sqSlot, pos uint64, err error) {
	if slot.desc.noCQ {
		r.complete(slot, pos, err)
		return
	}
	rec := cqRec{c: Completed{Tag: r.tagAt(pos), Op: slot.desc.op, Addr: slot.desc.addr, Err: err}, pos: pos}
	r.complete(slot, pos, err)
	r.postLocked([]cqRec{rec})
}

// harvest drains up to len(dst) completions into dst, consuming their
// slots. Entries already consumed via Wait are skipped.
func (r *vcRing) harvest(dst []Completed) int {
	if len(dst) == 0 {
		return 0
	}
	n := 0
	r.cqMu.Lock()
	for r.cqHead != r.cqTail && n < len(dst) {
		rec := &r.cq[r.cqHead&cqMask]
		r.cqHead++
		if r.slots[rec.pos&ringMask].seq.CompareAndSwap(rec.pos+2, rec.pos+RingSlots) {
			dst[n] = rec.c
			n++
		}
		rec.c.Err = nil
	}
	r.cqN.Store(int64(r.cqTail - r.cqHead))
	r.cqMu.Unlock()
	return n
}

// pending reports whether the ring has queued-but-unflushed work.
func (r *vcRing) pending() bool { return r.flushHead.Load() != r.tail.Load() }

// flushScratch is the pooled working set of one flush: decoded
// requests/responses for the device batch, plus flit-packing staging.
type flushScratch struct {
	reqs  [RingSlots]MemReq
	resps [RingSlots]MemResp
	pos   [RingSlots]uint64
	slotp [RingSlots]*sqSlot
	errs  [RingSlots]error
	post  [RingSlots]cqRec
	sqes  [SQEntriesPerFlit]SQE
	sqIdx [SQEntriesPerFlit]int
	cqes  [CQEntriesPerFlit]CQE
	cqIdx [CQEntriesPerFlit]int
	dec   [SQEntriesPerFlit]SQE
	decCQ [CQEntriesPerFlit]CQE
}

var flushScratchPool = sync.Pool{New: func() any { return new(flushScratch) }}

// flushVC rings the doorbell on one VC: claim the queued span with a
// CAS and process it, repeating until the SQ drains. Concurrent callers
// claim disjoint spans and proceed in parallel.
func (rp *RootPort) flushVC(r *vcRing) {
	for {
		h := r.flushHead.Load()
		t := r.tail.Load()
		if h == t {
			return
		}
		if !r.flushHead.CompareAndSwap(h, t) {
			continue
		}
		rp.processSpan(r, h, t)
	}
}

// processSpan moves the claimed descriptor span [h, t) across the link:
// line descriptors accumulate into batches (flushed in order around any
// burst descriptor), bursts stream through the chunked burst path. A
// span of one descriptor — the synchronous submit+flush+wait shape —
// never touches the batch scratch.
func (rp *RootPort) processSpan(r *vcRing, h, t uint64) {
	rp.doorbells.Add(1)
	s, serr := rp.ringSession()
	hk, hist, t0 := rp.tapPick(h, rp.hooks.Load(), descLine, OpMemRd, true)
	if hist != nil {
		defer hist.RecordSince(t0)
	}
	var sc *flushScratch
	n := 0
	for pos := h; pos < t; pos++ {
		slot := &r.slots[pos&ringMask]
		for slot.seq.Load() != pos+1 {
			// The producer claimed this position but has not published
			// yet; yield rather than spin so a preempted submitter can
			// finish its three stores.
			runtime.Gosched()
		}
		d := &slot.desc
		if t == h+1 || serr != nil || d.kind == descBurst {
			if n > 0 {
				rp.runLineBatch(r, s, hk, sc, n)
				n = 0
			}
			r.finish(slot, pos, rp.processSingle(r, d, pos, s, serr, hk))
			continue
		}
		if sc == nil {
			sc = flushScratchPool.Get().(*flushScratch)
		}
		sc.pos[n] = pos
		sc.slotp[n] = slot
		n++
	}
	if n > 0 {
		rp.runLineBatch(r, s, hk, sc, n)
	}
	if sc != nil {
		flushScratchPool.Put(sc)
	}
}

// descErr re-labels a link error on a packed flit, which carried
// several descriptors, with one descriptor's own transaction.
func descErr(err error, d *ringDesc) error {
	e := *err.(*PortError)
	e.Op, e.Addr = d.op.String(), d.addr
	return &e
}

// runLineBatch moves one batch of line descriptors: submissions across
// the wire in descriptor order (header-only entries packed four to a
// flit, data-bearing ones a flit each), one device queue call, then
// completions back (read data a flit each, statuses packed four to a
// flit). Wire faults are isolated per flit: a CRC retry re-sends only
// the failed flit, and an exhausted retry budget fails only the
// descriptors that flit carried.
func (rp *RootPort) runLineBatch(r *vcRing, s *portSession, hk *portHooks, sc *flushScratch, n int) {
	var f Flit
	m := wireMsg{sq: &sc.sqes, sqDec: &sc.dec, cq: &sc.cqes, cqDec: &sc.decCQ}

	// Phase 1: submissions out. nErr counts link-failed descriptors so
	// the clean (overwhelmingly common) batch skips every per-line error
	// probe downstream.
	nErr := 0
	pk := 0
	flushPack := func() {
		if pk == 0 {
			return
		}
		m.kind, m.n, m.op, m.addr = flitKindSQ, uint8(pk), sc.sqes[0].Op, sc.sqes[0].Addr
		err := rp.move(s, hk, r, &f, &m)
		for j := 0; j < pk; j++ {
			i := sc.sqIdx[j]
			if err != nil {
				sc.errs[i] = descErr(err, &sc.slotp[i].desc)
				nErr++
				continue
			}
			e := &sc.dec[j]
			q := &sc.reqs[i]
			q.Opcode, q.Addr, q.Tag, q.Mask, q.Lines = e.Op, e.Addr, e.Tag, 0, 0
		}
		pk = 0
	}
	for i := 0; i < n; i++ {
		d := &sc.slotp[i].desc
		tag := r.tagAt(sc.pos[i])
		sc.errs[i] = nil
		switch d.op {
		case OpMemRd, OpMemInv:
			sc.sqes[pk] = SQE{Op: d.op, Tag: tag, Addr: d.addr}
			sc.sqIdx[pk] = i
			pk++
			if pk == SQEntriesPerFlit {
				flushPack()
			}
		default: // OpMemWr, OpMemWrPtl: payload rides a full request flit.
			flushPack()
			m.kind, m.op, m.tag, m.addr, m.mask = flitKindReq, d.op, tag, d.addr, d.mask
			m.src, m.req = &d.data, &sc.reqs[i]
			if err := rp.move(s, hk, r, &f, &m); err != nil {
				sc.errs[i] = err
				nErr++
			}
		}
	}
	flushPack()

	// Phase 2: the endpoint services the decoded batch in one call.
	if nErr == 0 {
		s.endpoint.HandleMemQueue(sc.reqs[:n], sc.resps[:n])
	} else {
		for i := 0; i < n; i++ {
			if sc.errs[i] == nil {
				sc.resps[i] = s.endpoint.HandleMem(sc.reqs[i])
			}
		}
	}

	// Phase 3: completions back, in descriptor order.
	postN := 0
	done := func(i int, err error) {
		pos := sc.pos[i]
		slot := sc.slotp[i]
		if !slot.desc.noCQ {
			sc.post[postN] = cqRec{c: Completed{Tag: r.tagAt(pos), Op: slot.desc.op, Addr: slot.desc.addr, Err: err}, pos: pos}
			postN++
		}
		r.complete(slot, pos, err)
	}
	pk = 0
	flushCQ := func() {
		if pk == 0 {
			return
		}
		first := &sc.slotp[sc.cqIdx[0]].desc
		m.kind, m.n, m.op, m.addr = flitKindCQ, uint8(pk), first.op, first.addr
		err := rp.move(s, hk, r, &f, &m)
		for j := 0; j < pk; j++ {
			i := sc.cqIdx[j]
			d := &sc.slotp[i].desc
			if err != nil {
				done(i, descErr(err, d))
				continue
			}
			e := &sc.decCQ[j]
			done(i, rp.respErr(d.op, d.addr, r.tagAt(sc.pos[i]), e.Tag, e.Status))
		}
		pk = 0
	}
	for i := 0; i < n; i++ {
		if nErr != 0 && sc.errs[i] != nil {
			flushCQ()
			done(i, sc.errs[i])
			sc.errs[i] = nil
			continue
		}
		d := &sc.slotp[i].desc
		resp := &sc.resps[i]
		if d.op == OpMemRd && resp.Opcode == RespMemData {
			// Read data returns in its own flit, decoded straight into
			// the caller's buffer.
			flushCQ()
			m.kind, m.op, m.tag, m.seq, m.addr = flitKindData, d.op, r.tagAt(sc.pos[i]), uint32(sc.pos[i]), d.addr
			m.src, m.dst = &resp.Data, d.out
			done(i, rp.move(s, hk, r, &f, &m))
			continue
		}
		sc.cqes[pk] = CQE{Status: resp.Opcode, Tag: resp.Tag, Addr: d.addr}
		sc.cqIdx[pk] = i
		pk++
		if pk == CQEntriesPerFlit {
			flushCQ()
		}
	}
	flushCQ()
	if postN > 0 {
		r.postLocked(sc.post[:postN])
		for i := 0; i < postN; i++ {
			sc.post[i].c.Err = nil
		}
	}
}

// processSingle moves one descriptor on the caller's stack and returns
// its outcome; the caller finishes or frees the slot. The synchronous
// path's fused claim, a one-descriptor flush, and a batch's bursts and
// link-down failures all come through here. A line descriptor keeps
// runLineBatch's wire semantics exactly (a read or invalidate as one
// packed SQ entry, a write as a full request flit, the completion as
// read data or one packed CQ entry) without touching the batch scratch.
func (rp *RootPort) processSingle(r *vcRing, d *ringDesc, pos uint64, s *portSession, serr error, hk *portHooks) error {
	switch {
	case serr != nil:
		return portErr(rp.name, d.op.String(), d.addr, serr, serr.Error())
	case d.kind == descBurst:
		return rp.ringBurst(s, hk, r, d, r.tagAt(pos))
	}
	var f Flit
	var req MemReq
	tag := r.tagAt(pos)
	m := wireMsg{op: d.op, tag: tag, addr: d.addr, req: &req}
	if d.op == OpMemRd || d.op == OpMemInv {
		var sq, dec [SQEntriesPerFlit]SQE
		sq[0] = SQE{Op: d.op, Tag: tag, Addr: d.addr}
		m.kind, m.n, m.sq, m.sqDec = flitKindSQ, 1, &sq, &dec
		if err := rp.move(s, hk, r, &f, &m); err != nil {
			return err
		}
		req.Opcode, req.Addr, req.Tag = dec[0].Op, dec[0].Addr, dec[0].Tag
	} else { // OpMemWr, OpMemWrPtl
		m.kind, m.mask, m.src = flitKindReq, d.mask, &d.data
		if err := rp.move(s, hk, r, &f, &m); err != nil {
			return err
		}
	}
	resp := s.endpoint.HandleMem(req)
	if d.op == OpMemRd && resp.Opcode == RespMemData {
		m.kind, m.seq, m.src, m.dst = flitKindData, uint32(pos), &resp.Data, d.out
		return rp.move(s, hk, r, &f, &m)
	}
	var cq, dec [CQEntriesPerFlit]CQE
	cq[0] = CQE{Status: resp.Opcode, Tag: resp.Tag, Addr: d.addr}
	m.kind, m.n, m.cq, m.cqDec = flitKindCQ, 1, &cq, &dec
	if err := rp.move(s, hk, r, &f, &m); err != nil {
		return err
	}
	return rp.respErr(d.op, d.addr, tag, dec[0].Tag, dec[0].Status)
}
