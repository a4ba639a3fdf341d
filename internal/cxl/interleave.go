package cxl

import (
	"fmt"
	"runtime"
	"sync"
)

// Host-side interleave sets. CXL scales bandwidth the way DRAM channels
// do: a host physical window is striped across N endpoints at granule
// boundaries, and N links move data in parallel. The HDM decoder model
// (hdm.go) has carried the geometry since the seed — ways, granule,
// target index — but until this layer existed the host could not exploit
// it: nothing split a burst across ports. An InterleaveSet is that
// missing host half. It owns one root port per interleave target,
// programs the matching per-target decoders at enumeration time, and
// splits every bulk transfer into per-leg granule runs over the member
// ports. With more than one P (Go scheduler processor) the legs run
// concurrently on per-leg workers; with one P they run on the caller,
// one after another: no two legs compute at once on one P, though legs
// that wait (retry backoff, link retrain, an injected delay) wait in
// turn instead of together.
//
// The wire semantics per leg are unchanged: each leg's traffic moves
// through its own RootPort — multi-VC tagging, per-flit CRC, LRSM
// retry, the per-flit hook — so a fault injected on one link retries on
// that link alone and never perturbs the other legs. The endpoint
// services a leg burst with a single media access because consecutive
// target-owned lines of an interleaved window map to a contiguous DPA
// span (see Type3Device.HandleMemBurst).
//
// Steady state allocates nothing. The worker fan-out reuses pooled call
// frames handed to persistent per-leg worker goroutines (a goroutine
// spawned per call would heap-allocate its closure); a leg whose worker
// is mid-job runs on the caller instead. Each leg's owned lines move as
// bursts whose beats the port encodes from, and decodes into, their
// places in the caller's buffer, so no staging copy sits between the
// caller and the wire.

// MaxInterleaveWays bounds the interleave width, matching CXL 2.0's
// 8-way root-complex interleave limit.
const MaxInterleaveWays = 8

// DefaultInterleaveGranule is the stripe unit when the caller does not
// choose one: 256 B, the typical CXL interleave granularity.
const DefaultInterleaveGranule = 256

// stripeJob is one leg's share of a striped transfer, handed to the
// leg's worker goroutine. Jobs live inside pooled stripeCall frames so
// the fan-out allocates nothing in steady state.
type stripeJob struct {
	set   *InterleaveSet
	wg    *sync.WaitGroup
	leg   int
	write bool
	hpa   uint64
	p     []byte
	err   error
}

// stripeCall is the reusable per-call frame: one job slot per possible
// leg plus the completion barrier.
type stripeCall struct {
	wg   sync.WaitGroup
	jobs [MaxInterleaveWays]stripeJob
}

var stripeCallPool = sync.Pool{New: func() any { return new(stripeCall) }}

// legWorker drains one leg's job channel for the lifetime of the set.
func legWorker(ch chan *stripeJob) {
	for j := range ch {
		runStripeJob(j)
	}
}

// runStripeJob executes one leg's share and signals the call barrier.
// It runs on the leg's persistent worker, or on the caller when the
// worker is mid-job: concurrent striped calls do not queue behind one
// worker, so N callers drive a leg's port N-wide over its virtual
// channels.
func runStripeJob(j *stripeJob) {
	j.err = j.set.runLeg(j.leg, j.write, j.hpa, j.p)
	j.wg.Done()
}

// InterleaveSet is a striped CXL.mem data path over N root ports: one
// HPA window, interleaved at granule boundaries across the ports'
// endpoints, with bulk transfers split into per-leg sub-bursts: issued
// concurrently when GOMAXPROCS is above 1, in turn on the caller when
// it is 1. It exposes the same transfer surface as a single RootPort
// (ReadBurst/WriteBurst/ReadAt/WriteAt plus line ops routed to the
// owning leg), so callers swap one for the other. The stripe is
// fixed for the set's lifetime: ways, granule, share and member ports
// never change, so the data path reads them without synchronisation.
// The set never moves data between legs; draining a failing device is
// the fabric manager's job (fabric.EvacuatePool, for pooled capacity).
type InterleaveSet struct {
	name    string
	ways    int // interleave width
	base    uint64
	size    uint64 // ways × share
	share   uint64 // per-target bytes
	granule uint64
	legs    []*RootPort // member ports in target order
	// workers feed legs 1..ways-1 above one P; leg 0 needs none,
	// because do runs it on the caller's goroutine whenever a span
	// touches it, so a 1-way set degenerates to the plain port path
	// with no hand-off at all.
	workers []chan *stripeJob
}

// NewInterleaveSet builds and commits an interleave set: every port
// must be trained against a Type-3 (burst-capable) endpoint, and each
// endpoint is programmed with the per-target interleaved HDM decoder
// for the shared window at base. The window size is ways × share, where
// share is the smallest member HDM rounded down to a granule multiple.
// A granule of 0 selects DefaultInterleaveGranule; a base of 0 selects
// DefaultCXLWindowBase.
func NewInterleaveSet(name string, base, granule uint64, ports ...*RootPort) (*InterleaveSet, error) {
	ways := len(ports)
	if ways < 1 || ways > MaxInterleaveWays {
		return nil, fmt.Errorf("cxl: %s: %d interleave ways outside 1..%d", name, ways, MaxInterleaveWays)
	}
	if granule == 0 {
		granule = DefaultInterleaveGranule
	}
	if granule%uint64(LineSize) != 0 {
		return nil, fmt.Errorf("cxl: %s: granule %d not a multiple of the %d-byte line", name, granule, LineSize)
	}
	if base == 0 {
		base = DefaultCXLWindowBase
	}
	if base%granule != 0 {
		return nil, fmt.Errorf("cxl: %s: base %#x not granule-aligned", name, base)
	}

	share := ^uint64(0)
	type programmer interface{ ProgramDecoder(*HDMDecoder) error }
	for i, rp := range ports {
		ep := rp.Endpoint()
		if ep == nil || rp.State() != LinkUp {
			return nil, fmt.Errorf("cxl: %s: leg %d (%s): link down", name, i, rp.Name())
		}
		dvsec, ok := ep.Config().FindCXLDVSEC()
		if !ok || dvsec.Caps&CapMem == 0 || dvsec.HDMSize == 0 {
			return nil, fmt.Errorf("cxl: %s: leg %d endpoint %s advertises no HDM", name, i, ep.Name())
		}
		if _, ok := ep.(programmer); !ok {
			return nil, fmt.Errorf("cxl: %s: leg %d endpoint %s cannot program decoders", name, i, ep.Name())
		}
		if dvsec.HDMSize < share {
			share = dvsec.HDMSize
		}
	}
	share -= share % granule
	if share == 0 {
		return nil, fmt.Errorf("cxl: %s: member HDM smaller than one %d-byte granule", name, granule)
	}

	s := &InterleaveSet{
		name:    name,
		ways:    ways,
		base:    base,
		size:    share * uint64(ways),
		share:   share,
		granule: granule,
		legs:    append([]*RootPort(nil), ports...),
	}
	for i, rp := range ports {
		dec := &HDMDecoder{
			Base:              base,
			Size:              s.size,
			InterleaveWays:    ways,
			InterleaveGranule: granule,
			TargetIndex:       i,
		}
		if err := rp.Endpoint().(programmer).ProgramDecoder(dec); err != nil {
			return nil, fmt.Errorf("cxl: %s: leg %d: %w", name, i, err)
		}
	}
	for leg := 1; leg < ways; leg++ {
		ch := make(chan *stripeJob)
		s.workers = append(s.workers, ch)
		go legWorker(ch)
	}
	// Backstop for abandoned sets (a topology torn down without Close):
	// parked workers reference only their channel, never s, so an
	// unreachable set finalises and the workers exit. Explicit Close
	// remains the deterministic path and clears the finalizer.
	if len(s.workers) > 0 {
		runtime.SetFinalizer(s, (*InterleaveSet).Close)
	}
	return s, nil
}

// Close stops the leg workers (idempotent). Transfers issued after
// Close still work: the caller runs every touched leg itself, as it
// does at one P. Close must not race transfers; the caller first lets
// every in-flight transfer on the set return.
func (s *InterleaveSet) Close() {
	runtime.SetFinalizer(s, nil)
	for _, ch := range s.workers {
		close(ch)
	}
	s.workers = nil
}

// Name identifies the set.
func (s *InterleaveSet) Name() string { return s.name }

// Ways returns the interleave width.
func (s *InterleaveSet) Ways() int { return s.ways }

// Share returns the per-target bytes of the striped window.
func (s *InterleaveSet) Share() uint64 { return s.share }

// Granule returns the stripe unit in bytes.
func (s *InterleaveSet) Granule() uint64 { return s.granule }

// Base returns the first HPA of the striped window.
func (s *InterleaveSet) Base() uint64 { return s.base }

// Size returns the window length in bytes (ways × per-target share).
func (s *InterleaveSet) Size() uint64 { return s.size }

// Ports lists the member root ports in target order.
func (s *InterleaveSet) Ports() []*RootPort {
	return append([]*RootPort(nil), s.legs...)
}

// Route returns the member port owning the granule at hpa (port 0 for
// addresses outside the window — the port's own decode then reports the
// error).
func (s *InterleaveSet) Route(hpa uint64) *RootPort {
	if s.ways == 1 || hpa < s.base || hpa >= s.base+s.size {
		return s.legs[0]
	}
	return s.legs[((hpa-s.base)/s.granule)%uint64(s.ways)]
}

// ReadLine fetches one line through the owning leg.
func (s *InterleaveSet) ReadLine(hpa uint64, out *[LineSize]byte) error {
	return s.Route(hpa).ReadLine(hpa, out)
}

// WriteLine stores one line through the owning leg.
func (s *InterleaveSet) WriteLine(hpa uint64, data *[LineSize]byte) error {
	return s.Route(hpa).WriteLine(hpa, data)
}

// WriteBurst stores p at the line-aligned HPA hpa, striping the lines
// across the member ports; len(p) must be a multiple of LineSize and
// the span must stay inside the window.
func (s *InterleaveSet) WriteBurst(hpa uint64, p []byte) error {
	return s.do(true, hpa, p)
}

// ReadBurst fetches len(p) bytes from the line-aligned HPA hpa across
// the member ports; the same constraints as WriteBurst apply.
func (s *InterleaveSet) ReadBurst(hpa uint64, p []byte) error {
	return s.do(false, hpa, p)
}

// do validates the span and runs it on the legs that own a granule of
// it; untouched legs are never woken. The caller runs one leg itself —
// the lead: leg 0 when the span touches it, otherwise the span's first
// leg — so a span inside one granule never leaves the caller. With more
// than one P the other touched legs go to their workers, except a leg
// whose worker is mid-job, which the caller runs after the lead; with
// one P, or once Close has stopped the workers, the caller runs them
// all, in span order after the lead. Either way every touched leg runs,
// and do returns the first error: the lead's, then the other legs' in
// span order. A failing leg aborts its own remaining bursts only;
// striped transfers are atomic per leg burst, not across legs (matching
// multi-channel memory semantics — see DESIGN.md §2d).
func (s *InterleaveSet) do(write bool, hpa uint64, p []byte) error {
	if !lineAligned(hpa) || len(p)%LineSize != 0 {
		return portErr(s.name, s.op(write), hpa, ErrUnaligned, "unaligned burst")
	}
	if hpa < s.base || hpa+uint64(len(p)) > s.base+s.size {
		return portErr(s.name, s.op(write), hpa, ErrOutsideWindow, "outside interleave window")
	}
	if len(p) == 0 {
		return nil
	}
	ways := uint64(s.ways)
	first := (hpa - s.base) / s.granule
	touched := (hpa-s.base+uint64(len(p))-1)/s.granule - first + 1
	if touched > ways {
		touched = ways
	}
	// The touched legs are first%ways onward, wrapping; they include
	// leg 0 exactly when they run past the last leg or start at 0.
	lead := int(first % ways)
	if uint64(lead)+touched > ways {
		lead = 0
	}
	if touched == 1 || s.workers == nil || runtime.GOMAXPROCS(0) == 1 {
		// A one-leg span needs no worker, and a closed set has none.
		// With one P a worker cannot compute beside the caller, so a
		// hand-off buys no compute overlap, only switches. It would
		// overlap waits: a leg asleep in retry backoff, parked for a
		// link retrain (up to RetrainTimeout) or slowed by an injected
		// delay. Here those waits add up across the touched legs, so a
		// striped call's fault latency is their sum, not their
		// maximum. Every touched leg runs here, lead first and then in
		// span order, which is the order the worker path reports
		// errors in. GOMAXPROCS is read per call because callers
		// change it after the set is built.
		err := s.runLeg(lead, write, hpa, p)
		for i := uint64(0); i < touched; i++ {
			if leg := int((first + i) % ways); leg != lead {
				if e := s.runLeg(leg, write, hpa, p); err == nil {
					err = e
				}
			}
		}
		return err
	}
	c := stripeCallPool.Get().(*stripeCall)
	c.wg.Add(int(touched) - 1)
	var busy uint16 // legs whose worker was mid-job, as a bit mask
	for i := uint64(0); i < touched; i++ {
		leg := int((first + i) % ways)
		if leg == lead {
			continue
		}
		j := &c.jobs[leg]
		j.set, j.wg, j.leg, j.write, j.hpa, j.p, j.err = s, &c.wg, leg, write, hpa, p, nil
		select {
		case s.workers[leg-1] <- j:
		default:
			// Leg worker mid-job: a concurrent striped call holds it,
			// or it has not parked again since this caller's last
			// call. The caller runs the leg itself after the lead.
			busy |= 1 << leg
		}
	}
	err := s.runLeg(lead, write, hpa, p)
	for i := uint64(0); busy != 0 && i < touched; i++ {
		if leg := int((first + i) % ways); busy&(1<<leg) != 0 {
			runStripeJob(&c.jobs[leg])
		}
	}
	c.wg.Wait()
	for i := uint64(0); i < touched; i++ {
		leg := int((first + i) % ways)
		if leg == lead {
			continue
		}
		if err == nil && c.jobs[leg].err != nil {
			err = c.jobs[leg].err
		}
		c.jobs[leg].set, c.jobs[leg].p = nil, nil
	}
	stripeCallPool.Put(c)
	return err
}

func (s *InterleaveSet) op(write bool) string {
	if write {
		return "MemWrBurst(striped)"
	}
	return "MemRdBurst(striped)"
}

// runLeg moves one leg's share of the span [hpa, hpa+len(p)): the
// intersection of the span with the granules owned by this target.
// Consecutive target-owned lines map to a contiguous DPA span at the
// endpoint, so at any granule the leg's owned bytes, counted in HPA
// order, travel as one burst transaction per maxBurstBytes of them —
// one header and one media access each — never as per-line
// transactions. The port moves each beat straight between the wire and
// its place in p.
func (s *InterleaveSet) runLeg(leg int, write bool, hpa uint64, p []byte) error {
	g := s.granule
	stride := g * uint64(s.ways)
	legOff := uint64(leg) * g
	off := hpa - s.base
	// owned counts the leg's bytes below window offset x; the leg's
	// owned byte u sits at window offset u/g*stride + legOff + u%g.
	owned := func(x uint64) uint64 { return x/stride*g + min(max(x%stride, legOff), legOff+g) - legOff }
	for u, end := owned(off), owned(off+uint64(len(p))); u < end; {
		n := min(end-u, uint64(maxBurstBytes))
		w := u/g*stride + legOff + u%g
		if err := s.legs[leg].legBurst(write, s.base+w, p[w-off:], int(n), int(g-u%g), int(g), int(stride-g)); err != nil {
			return err
		}
		u += n
	}
	return nil
}

// ReadAt copies len(p) bytes from HPA off, split by readAt: head and
// tail fragments, and an aligned interior of one line, go as line
// transactions through the owning leg, a longer interior as striped
// bursts.
func (s *InterleaveSet) ReadAt(p []byte, off int64) error { return readAt(s, p, off) }

// WriteAt stores p at HPA off, split by writeAt: head and tail fragments
// become byte-masked partial writes on the owning leg, an interior of
// one line a MemWr on it, and a longer interior striped bursts.
func (s *InterleaveSet) WriteAt(p []byte, off int64) error { return writeAt(s, p, off) }

// readPartial reads a sub-line fragment through the leg owning the line
// at base; a line never crosses a granule.
func (s *InterleaveSet) readPartial(base uint64, lo int, p []byte) error {
	return s.Route(base).readPartial(base, lo, p)
}

// writePartial writes a sub-line fragment through the leg owning the
// line at base.
func (s *InterleaveSet) writePartial(base uint64, lo int, p []byte) error {
	return s.Route(base).writePartial(base, lo, p)
}

func (s *InterleaveSet) String() string {
	return fmt.Sprintf("%s: %d-way@%dB stripe [%#x, %#x)", s.name, s.ways, s.granule, s.base, s.base+s.size)
}
