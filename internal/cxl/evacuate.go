package cxl

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Live evacuation of one interleave leg. When a member device degrades,
// the set sheds it without stopping traffic:
//
//  1. BeginEvacuation programs a plain spare HDM decoder on every
//     healthy leg — carved from the headroom InterleaveOptions.Share
//     leaves above the striped share — and publishes the evacuation
//     state to the data path.
//  2. EvacuateStep copies the dying leg's granules onto the spare
//     windows, round-robin across the healthy legs, while reads and
//     writes keep flowing: each granule's home (old leg vs spare) is a
//     published atomic, writers serialise against the copier through a
//     striped granule lock, readers run a seqlock (re-check the home
//     after the read, retry on a move).
//  3. DetachEvacuated hands back the drained port for hot-remove; the
//     set runs degraded at N-1 devices, the dead leg's granules served
//     from the spares.
//  4. Reattach binds a replacement into the leg (hot-add) and
//     RestripeStep migrates the granules back, restoring full width and
//     releasing the spare decoders.
//
// Geometry never changes: ways, granule, share and the HPA window are
// fixed for the set's lifetime, so the other legs' addressing — and
// every address a caller holds — stays valid throughout.

// granule home states, published per granule in evacuation.state.
const (
	granOnLeg   = uint32(0) // served by the (old or reattached) leg
	granOnSpare = uint32(1) // served by a healthy leg's spare window
)

// evacLockStripes is the size of the striped granule-lock table: large
// enough that a writer and the copier rarely collide on different
// granules, small enough to embed in the evacuation record.
const evacLockStripes = 128

// spareWindow is one healthy leg's slice of the evacuated capacity.
type spareWindow struct {
	port *RootPort
	dec  *HDMDecoder
	base uint64 // first HPA of the spare window
}

// evacuation is the published state of one in-progress leg evacuation.
// The data path reads leg, spares and state lock-free; the cursors and
// staging buffer belong to the control plane (guarded by evacMu).
type evacuation struct {
	leg    int
	spares []spareWindow // one per healthy leg, ascending leg order
	nGran  uint64        // granules per leg (share / granule)
	state  []atomic.Uint32
	locks  [evacLockStripes]sync.Mutex

	next       uint64 // first granule not yet moved to a spare
	back       uint64 // first granule not yet restriped home
	buf        []byte // one-granule staging buffer for the migrator
	detached   bool
	reattached bool
}

func (ev *evacuation) lockFor(k uint64) *sync.Mutex { return &ev.locks[k%evacLockStripes] }

// granHPA returns the window HPA of the evacuating leg's k-th granule.
func (s *InterleaveSet) granHPA(ev *evacuation, k uint64) uint64 {
	return s.base + k*s.granule*uint64(s.ways) + uint64(ev.leg)*s.granule
}

// spareHome returns the port and HPA serving granule k when it lives on
// a spare window: granules round-robin across the healthy legs.
func (s *InterleaveSet) spareHome(ev *evacuation, k uint64) (*RootPort, uint64) {
	healthy := uint64(s.ways - 1)
	sp := &ev.spares[k%healthy]
	return sp.port, sp.base + (k/healthy)*s.granule
}

// evacOwned reports whether hpa falls in a granule owned by the
// evacuating leg. Line and sub-line accesses never span a granule, so
// the start address decides.
func (s *InterleaveSet) evacOwned(ev *evacuation, hpa uint64) bool {
	if hpa < s.base || hpa >= s.base+s.size {
		return false
	}
	return ((hpa-s.base)/s.granule)%uint64(s.ways) == uint64(ev.leg)
}

// evacHome resolves granule k's current port and the translated address
// for window HPA hpa under home state st. granOnLeg always resolves
// through the live slice, so a reattached replacement takes over
// transparently.
func (s *InterleaveSet) evacHome(ev *evacuation, k uint64, hpa uint64, st uint32) (*RootPort, uint64) {
	if st == granOnLeg {
		return s.legs()[ev.leg], hpa
	}
	rp, base := s.spareHome(ev, k)
	return rp, base + (hpa - s.granHPA(ev, k))
}

// evacSmall serves a line or sub-line access inside one evacuating-leg
// granule: writes serialise with the migrator through the granule lock,
// reads seqlock against a concurrent move.
func (s *InterleaveSet) evacSmall(ev *evacuation, write bool, hpa uint64, p []byte) error {
	k := (hpa - s.base) / (s.granule * uint64(s.ways))
	if write {
		mu := ev.lockFor(k)
		mu.Lock()
		defer mu.Unlock()
		rp, addr := s.evacHome(ev, k, hpa, ev.state[k].Load())
		return rp.WriteAt(p, int64(addr))
	}
	for {
		st := ev.state[k].Load()
		rp, addr := s.evacHome(ev, k, hpa, st)
		err := rp.ReadAt(p, int64(addr))
		if ev.state[k].Load() != st {
			// The granule moved mid-read: the bytes (or the error — the
			// old home's decoder may be mid-removal) may be stale. Retry
			// against the new home.
			continue
		}
		return err
	}
}

// runLegEvac is runLeg for the evacuating leg: each owned piece of the
// span is contiguous at its current home, so pieces burst zero-copy
// from the caller's buffer with per-granule routing.
func (s *InterleaveSet) runLegEvac(ev *evacuation, write bool, hpa uint64, p []byte) error {
	g := s.granule
	stride := g * uint64(s.ways)
	off := hpa - s.base
	end := off + uint64(len(p))
	legOff := uint64(ev.leg) * g

	var k uint64
	if off > legOff {
		k = (off - legOff) / stride
		if k*stride+legOff+g <= off {
			k++
		}
	}
	for {
		gs := k*stride + legOff
		if gs >= end {
			return nil
		}
		lo, hi := gs, gs+g
		if lo < off {
			lo = off
		}
		if hi > end {
			hi = end
		}
		if err := s.evacPiece(ev, write, k, s.base+lo, p[lo-off:hi-off]); err != nil {
			return err
		}
		k++
	}
}

// evacPiece moves one granule-bounded, line-aligned piece to or from
// granule k's current home.
func (s *InterleaveSet) evacPiece(ev *evacuation, write bool, k uint64, hpa uint64, p []byte) error {
	if write {
		mu := ev.lockFor(k)
		mu.Lock()
		defer mu.Unlock()
		rp, addr := s.evacHome(ev, k, hpa, ev.state[k].Load())
		return rp.WriteBurst(addr, p)
	}
	for {
		st := ev.state[k].Load()
		rp, addr := s.evacHome(ev, k, hpa, st)
		err := rp.ReadBurst(addr, p)
		if ev.state[k].Load() != st {
			continue
		}
		return err
	}
}

// enter registers a transfer on the current epoch's inflight counter
// and returns the epoch to release. The re-check after the increment
// closes the race with a concurrent flip: a transfer that registered on
// an epoch the grace period already waited out backs off and re-enters
// on the new one.
func (s *InterleaveSet) enter() int {
	for {
		e := int(s.epoch.Load() & 1)
		s.inflight[e].Add(1)
		if int(s.epoch.Load()&1) == e {
			return e
		}
		s.inflight[e].Add(-1)
	}
}

func (s *InterleaveSet) exit(e int) { s.inflight[e].Add(-1) }

// gracePeriod flips the epoch and blocks until every transfer that
// registered under the previous one has completed. Transfers beginning
// after the flip land on the new epoch and observe all state published
// before the call; the wait never requires foreground traffic to
// quiesce. Transfers never take evacMu, so waiting under it cannot
// deadlock.
func (s *InterleaveSet) gracePeriod() {
	old := int(s.epoch.Add(1)-1) & 1
	for s.inflight[old].Load() != 0 {
		runtime.Gosched()
	}
}

// Evacuating reports the leg currently under evacuation, if any.
func (s *InterleaveSet) Evacuating() (leg int, active bool) {
	if ev := s.evac.Load(); ev != nil {
		return ev.leg, true
	}
	return 0, false
}

// BeginEvacuation starts evacuating the given leg: it programs a plain
// spare decoder on every healthy leg's endpoint (rolled back on
// failure — a member without Share headroom rejects the program, which
// is the "no spare capacity" error) and publishes the evacuation to the
// data path. No data moves yet; drive EvacuateStep or EvacuateDrain.
func (s *InterleaveSet) BeginEvacuation(leg int) error {
	s.evacMu.Lock()
	defer s.evacMu.Unlock()
	if s.evac.Load() != nil {
		return fmt.Errorf("cxl: %s: evacuation already in progress", s.name)
	}
	if s.ways < 2 {
		return fmt.Errorf("cxl: %s: cannot evacuate a 1-way set", s.name)
	}
	if leg < 0 || leg >= s.ways {
		return fmt.Errorf("cxl: %s: no leg %d in %d-way set", s.name, leg, s.ways)
	}

	g := s.granule
	nGran := s.share / g
	healthy := uint64(s.ways - 1)
	// Each healthy leg absorbs every (ways-1)-th granule; its window is
	// slot-addressed, so it must hold ceil(nGran / healthy) slots.
	slots := (nGran + healthy - 1) / healthy
	w := slots * g

	type programmer interface{ ProgramDecoder(*HDMDecoder) error }
	type remover interface{ RemoveDecoder(*HDMDecoder) error }
	ev := &evacuation{leg: leg, nGran: nGran, buf: make([]byte, g)}
	ev.state = make([]atomic.Uint32, nGran)
	h := 0
	for i, rp := range s.legs() {
		if i == leg {
			continue
		}
		dec := &HDMDecoder{
			// Spare windows live above the striped window, one disjoint
			// plain range per healthy leg, backed by the DPA headroom
			// above the leg's striped share.
			Base:    s.base + s.size + uint64(h)*w,
			Size:    w,
			DPABase: s.share,
		}
		if err := rp.Endpoint().(programmer).ProgramDecoder(dec); err != nil {
			for _, sp := range ev.spares {
				if rmErr := sp.port.Endpoint().(remover).RemoveDecoder(sp.dec); rmErr != nil {
					panic(fmt.Sprintf("cxl: %s: spare decoder rollback: %v", s.name, rmErr))
				}
			}
			return fmt.Errorf("cxl: %s: leg %d (%s) cannot host spare window: %w", s.name, i, rp.Name(), err)
		}
		ev.spares = append(ev.spares, spareWindow{port: rp, dec: dec, base: dec.Base})
		h++
	}
	s.evac.Store(ev)
	// Grace period: transfers that resolved the leg before the publish
	// finish on the old direct path; everything after routes per-granule
	// and takes the locks the migrator honours.
	s.gracePeriod()
	return nil
}

// EvacuateStep migrates up to n granules of the evacuating leg onto the
// spare windows and reports whether the leg is fully drained. Foreground
// traffic proceeds throughout; each granule is unavailable to writers
// only for its own copy.
func (s *InterleaveSet) EvacuateStep(n int) (done bool, err error) {
	s.evacMu.Lock()
	defer s.evacMu.Unlock()
	ev := s.evac.Load()
	if ev == nil {
		return false, fmt.Errorf("cxl: %s: no evacuation in progress", s.name)
	}
	if ev.detached {
		return true, nil
	}
	src := s.legs()[ev.leg]
	for ; n > 0 && ev.next < ev.nGran; n-- {
		k := ev.next
		mu := ev.lockFor(k)
		mu.Lock()
		if ev.state[k].Load() == granOnLeg {
			hpa := s.granHPA(ev, k)
			if err := src.ReadBurst(hpa, ev.buf); err != nil {
				mu.Unlock()
				return false, fmt.Errorf("cxl: %s: evacuating granule %d: %w", s.name, k, err)
			}
			dst, addr := s.spareHome(ev, k)
			if err := dst.WriteBurst(addr, ev.buf); err != nil {
				mu.Unlock()
				return false, fmt.Errorf("cxl: %s: evacuating granule %d: %w", s.name, k, err)
			}
			ev.state[k].Store(granOnSpare)
		}
		mu.Unlock()
		ev.next++
	}
	return ev.next >= ev.nGran, nil
}

// EvacuateDrain runs EvacuateStep until the leg is empty.
func (s *InterleaveSet) EvacuateDrain() error {
	for {
		done, err := s.EvacuateStep(64)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}

// DetachEvacuated completes the hot-remove: once every granule has left
// the leg, it returns the drained member port so the caller can detach
// it and remove the device from the switch. The set keeps running
// degraded — the leg's granules served from the spare windows — until
// Reattach/RestripeStep restore full width.
func (s *InterleaveSet) DetachEvacuated() (*RootPort, error) {
	s.evacMu.Lock()
	defer s.evacMu.Unlock()
	ev := s.evac.Load()
	if ev == nil {
		return nil, fmt.Errorf("cxl: %s: no evacuation in progress", s.name)
	}
	if ev.detached {
		return nil, fmt.Errorf("cxl: %s: leg %d already detached", s.name, ev.leg)
	}
	if ev.next < ev.nGran {
		return nil, fmt.Errorf("cxl: %s: leg %d still holds %d of %d granules", s.name, ev.leg, ev.nGran-ev.next, ev.nGran)
	}
	ev.detached = true
	return s.legs()[ev.leg], nil
}

// Reattach binds a replacement port into the evacuated leg (hot-add):
// the replacement's endpoint must pass the same checks as a construction
// member, gets the leg's interleaved decoder programmed (skipped if an
// identical decoder is already committed — re-adding the same card),
// and is published to the data path. Granules stay on the spares until
// RestripeStep moves them home.
func (s *InterleaveSet) Reattach(rp *RootPort) error {
	s.evacMu.Lock()
	defer s.evacMu.Unlock()
	ev := s.evac.Load()
	if ev == nil {
		return fmt.Errorf("cxl: %s: no evacuation in progress", s.name)
	}
	if !ev.detached {
		return fmt.Errorf("cxl: %s: leg %d not detached", s.name, ev.leg)
	}
	if ev.reattached {
		return fmt.Errorf("cxl: %s: leg %d already reattached", s.name, ev.leg)
	}
	ep := rp.Endpoint()
	if ep == nil || rp.State() != LinkUp {
		return fmt.Errorf("cxl: %s: replacement %s: link down", s.name, rp.Name())
	}
	want := HDMDecoder{
		Base:              s.base,
		Size:              s.size,
		InterleaveWays:    s.ways,
		InterleaveGranule: s.granule,
		TargetIndex:       ev.leg,
	}
	programmed := false
	if lister, ok := ep.(interface{ Decoders() []*HDMDecoder }); ok {
		for _, dec := range lister.Decoders() {
			if *dec == want {
				programmed = true
				break
			}
		}
	}
	if !programmed {
		p, ok := ep.(interface{ ProgramDecoder(*HDMDecoder) error })
		if !ok {
			return fmt.Errorf("cxl: %s: replacement endpoint %s cannot program decoders", s.name, ep.Name())
		}
		dec := want
		if err := p.ProgramDecoder(&dec); err != nil {
			return fmt.Errorf("cxl: %s: replacement %s: %w", s.name, rp.Name(), err)
		}
	}
	legs := append([]*RootPort(nil), s.legs()...)
	legs[ev.leg] = rp
	s.live.Store(&legs)
	// Grace period: transfers still holding the old slice target only
	// spare windows (every granule is granOnSpare), so nothing reaches
	// the removed device; the drain just bounds the swap.
	s.gracePeriod()
	ev.reattached = true
	return nil
}

// RestripeStep moves up to n granules from the spare windows back onto
// the reattached leg and reports completion. On the last granule it
// retires the evacuation: the data path returns to the plain striped
// route and the spare decoders are released.
func (s *InterleaveSet) RestripeStep(n int) (done bool, err error) {
	s.evacMu.Lock()
	defer s.evacMu.Unlock()
	ev := s.evac.Load()
	if ev == nil {
		return true, nil
	}
	if !ev.reattached {
		return false, fmt.Errorf("cxl: %s: leg %d has no reattached device to restripe onto", s.name, ev.leg)
	}
	dst := s.legs()[ev.leg]
	for ; n > 0 && ev.back < ev.nGran; n-- {
		k := ev.back
		mu := ev.lockFor(k)
		mu.Lock()
		if ev.state[k].Load() == granOnSpare {
			src, addr := s.spareHome(ev, k)
			if err := src.ReadBurst(addr, ev.buf); err != nil {
				mu.Unlock()
				return false, fmt.Errorf("cxl: %s: restriping granule %d: %w", s.name, k, err)
			}
			if err := dst.WriteBurst(s.granHPA(ev, k), ev.buf); err != nil {
				mu.Unlock()
				return false, fmt.Errorf("cxl: %s: restriping granule %d: %w", s.name, k, err)
			}
			ev.state[k].Store(granOnLeg)
		}
		mu.Unlock()
		ev.back++
	}
	if ev.back < ev.nGran {
		return false, nil
	}
	// Retire: unpublish first, then wait out accesses that still hold
	// the evacuation (they resolve granOnLeg → the live leg, which is
	// correct), and only then drop the spare decoders.
	s.evac.Store(nil)
	s.gracePeriod()
	type remover interface{ RemoveDecoder(*HDMDecoder) error }
	for _, sp := range ev.spares {
		if err := sp.port.Endpoint().(remover).RemoveDecoder(sp.dec); err != nil {
			return true, fmt.Errorf("cxl: %s: releasing spare window on %s: %w", s.name, sp.port.Name(), err)
		}
	}
	return true, nil
}

// RestripeDrain runs RestripeStep until the set is back at full width.
func (s *InterleaveSet) RestripeDrain() error {
	for {
		done, err := s.RestripeStep(64)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}
