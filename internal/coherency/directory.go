// Directory-based hardware coherence for shared HDM — the CXL 3.0
// successor of this package's Peterson discipline. The Type-3 device
// that exposes the shared segment owns a per-line
// MESI directory: every 64-byte line records which hosts cache it and
// in what state. Before a conflicting access is granted, the directory
// recalls the line from its current holders over the back-invalidate
// channel (cxl.BISnp/cxl.BIRsp), routed upstream through the switch —
// so applications get transparent load/store semantics with no explicit
// flush or invalidate, which is exactly what the paper's §2.2
// configuration lacks and CXL 3.0 adds.
package coherency

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cxlpmem/internal/cxl"
)

// MaxCoherentHosts bounds the directory's sharer bitmask width.
const MaxCoherentHosts = 16

// SnoopPort routes a back-invalidate snoop to the host behind a vPPB.
// *cxl.Switch implements it; the directory never talks to a host cache
// directly, so the snoop traffic is observable at the fabric like any
// other CXL message.
type SnoopPort interface {
	Snoop(vppb string, req cxl.BISnp) (cxl.BIRsp, error)
}

// DirStats counts directory activity.
type DirStats struct {
	// SharedGrants and ExclusiveGrants count successful acquires.
	SharedGrants    atomic.Int64
	ExclusiveGrants atomic.Int64
	// Snoops counts BISnp messages issued; Writebacks counts snoops
	// whose response reported dirty data written back.
	Snoops     atomic.Int64
	Writebacks atomic.Int64
	// Downgrades counts owners moved M/E -> S; Invalidations counts
	// copies dropped by SnpInv.
	Downgrades    atomic.Int64
	Invalidations atomic.Int64
	// MissWaits counts snoops that raced a victim eviction: the host
	// answered RspMiss and the directory waited for its release.
	MissWaits atomic.Int64
	// Releases counts voluntary releases (evictions).
	Releases atomic.Int64
}

// dirLine is one line's directory entry: a sharer bitmask plus the
// exclusive owner (-1 when none). A line is in exactly one of three
// directory states: invalid (no bits, no owner), shared (bits, no
// owner), exclusive (owner, no bits). The owner's host-side state may
// be Exclusive or Modified — the directory cannot tell (silent E→M
// upgrade, as in real MESI), so it always snoops before a conflicting
// grant.
type dirLine struct {
	sharers uint16
	owner   int8
}

// Directory is the device-side coherence engine for one shared
// segment.
type Directory struct {
	fabric SnoopPort
	// vppbs maps host IDs to the switch vPPBs their snoopers sit
	// behind.
	vppbs []string
	seg   Segment

	mu   sync.Mutex
	cond *sync.Cond
	// lines holds one entry per 64-byte line of the segment.
	lines []dirLine
	// inflight serialises transactions per line: at most one acquire
	// may be snooping/granting a given line at a time (the
	// inflight-snoop table). Releases never wait on it — that is the
	// deadlock-avoidance ordering, see DESIGN.md §2e.
	inflight map[uint64]bool

	stats DirStats
	tag   atomic.Uint32
	// snoopDelay, when set, runs before every snoop is issued — test
	// hook for widening the race windows linearizability tests probe.
	snoopDelay atomic.Pointer[func()]
}

// NewDirectory builds the directory for a segment shared by the hosts
// behind the given vPPBs (host ID i snoops through vppbs[i]).
func NewDirectory(seg Segment, fabric SnoopPort, vppbs []string) (*Directory, error) {
	if fabric == nil {
		return nil, fmt.Errorf("coherency: nil snoop fabric")
	}
	if len(vppbs) < 2 || len(vppbs) > MaxCoherentHosts {
		return nil, fmt.Errorf("coherency: %d hosts outside 2..%d", len(vppbs), MaxCoherentHosts)
	}
	if seg.Size <= 0 || seg.Size%int64(lineBytes) != 0 {
		return nil, fmt.Errorf("coherency: segment size %d not a positive multiple of %d", seg.Size, lineBytes)
	}
	d := &Directory{
		fabric:   fabric,
		vppbs:    append([]string(nil), vppbs...),
		seg:      seg,
		lines:    make([]dirLine, seg.Size/int64(lineBytes)),
		inflight: make(map[uint64]bool),
	}
	for i := range d.lines {
		d.lines[i].owner = -1
	}
	d.cond = sync.NewCond(&d.mu)
	return d, nil
}

// Lines returns the number of 64-byte lines the directory tracks.
func (d *Directory) Lines() uint64 { return uint64(len(d.lines)) }

// Stats exposes the directory counters.
func (d *Directory) Stats() *DirStats { return &d.stats }

// SetSnoopDelay installs (or with nil removes) a hook run before every
// snoop is issued. Tests inject random delays here to widen the windows
// between snoop, write-back and grant.
func (d *Directory) SetSnoopDelay(f func()) {
	if f == nil {
		d.snoopDelay.Store(nil)
		return
	}
	d.snoopDelay.Store(&f)
}

func (d *Directory) checkReq(host int, line uint64) error {
	if host < 0 || host >= len(d.vppbs) {
		return fmt.Errorf("coherency: directory: host %d outside 0..%d", host, len(d.vppbs)-1)
	}
	if line >= uint64(len(d.lines)) {
		return fmt.Errorf("coherency: directory: line %d outside segment (%d lines)", line, len(d.lines))
	}
	return nil
}

// grantSink is notified the moment an acquire settles, INSIDE the
// directory's critical section — atomically with the host becoming a
// recorded holder. The coherent cache uses it to flag its pending fill
// as grant-holding before any snoop can observe the new record;
// without that atomicity a snoop could land in the gap between the
// settle and the host noticing its own grant, answer RspMiss, and
// leave the snooper waiting for a release that never comes.
type grantSink interface {
	grantSettled(line uint64)
}

// claimLine blocks until no other transaction is in flight on the line,
// then marks it in flight and returns a snapshot of its state. Caller
// must pair with settleLine.
func (d *Directory) claimLine(line uint64) dirLine {
	d.mu.Lock()
	for d.inflight[line] {
		d.cond.Wait()
	}
	d.inflight[line] = true
	st := d.lines[line]
	d.mu.Unlock()
	return st
}

// settleLine publishes the grant and releases the in-flight slot. The
// sink, when non-nil, is notified under d.mu (it takes the host's
// cache lock; the d.mu -> cache-lock order is safe because no path
// acquires d.mu while holding a cache lock).
func (d *Directory) settleLine(line uint64, sink grantSink, mutate func(*dirLine)) {
	d.mu.Lock()
	mutate(&d.lines[line])
	if sink != nil {
		sink.grantSettled(line)
	}
	delete(d.inflight, line)
	d.cond.Broadcast()
	d.mu.Unlock()
}

// snoop routes one back-invalidate message to a host and interprets
// the response, returning the resulting state at the snooped host:
//
//   - RspIHit/RspSHit: the host acted (invalidated / downgraded),
//     writing any dirty copy back first;
//   - RspMiss: a victim eviction is in flight — the host removed the
//     line from its cache, is writing dirty data back through its own
//     port, and will call release when the media is current. snoop
//     waits for that release before returning (the grant must not
//     read stale media), so a RspMiss return also means "host no
//     longer holds the line";
//   - RspRetry: the host could NOT surrender the line (its write-back
//     failed) and its state is unchanged — surfaced as an error so the
//     caller aborts the grant without touching this host's record.
func (d *Directory) snoop(host int, line uint64, op cxl.BISnpOpcode) (cxl.BIRsp, error) {
	if f := d.snoopDelay.Load(); f != nil {
		(*f)()
	}
	d.stats.Snoops.Add(1)
	rsp, err := d.fabric.Snoop(d.vppbs[host], cxl.BISnp{
		Opcode: op,
		Addr:   uint64(d.seg.Base) + line*lineBytes,
		Tag:    uint16(d.tag.Add(1)),
	})
	if err != nil {
		return rsp, err
	}
	if rsp.Dirty {
		d.stats.Writebacks.Add(1)
	}
	switch rsp.Opcode {
	case cxl.RspIHit:
		d.stats.Invalidations.Add(1)
	case cxl.RspSHit:
		d.stats.Downgrades.Add(1)
	case cxl.RspMiss:
		d.stats.MissWaits.Add(1)
		d.waitRelease(host, line)
	case cxl.RspRetry:
		return rsp, fmt.Errorf("coherency: host %d deferred %v of line %d (write-back failed); retry", host, op, line)
	}
	return rsp, nil
}

// waitRelease blocks until host is no longer a recorded holder of line
// (the RspMiss contract: a victim eviction's release is coming).
func (d *Directory) waitRelease(host int, line uint64) {
	d.mu.Lock()
	for d.holdsLocked(host, line) {
		d.cond.Wait()
	}
	d.mu.Unlock()
}

// holdsLocked reports whether the directory still records host as a
// holder of line; callers hold d.mu.
func (d *Directory) holdsLocked(host int, line uint64) bool {
	l := d.lines[line]
	return int(l.owner) == host || l.sharers&(1<<uint(host)) != 0
}

// acquireShared grants host a Shared copy of the line, recalling any
// remote exclusive owner first (SnpData: write back if dirty, keep a
// Shared copy). On return the media holds the current data and the host
// may cache the line Shared.
func (d *Directory) acquireShared(host int, line uint64, sink grantSink) error {
	if err := d.checkReq(host, line); err != nil {
		return err
	}
	st := d.claimLine(line)
	downgraded, dropped := int8(-1), int8(-1)
	if st.owner >= 0 && int(st.owner) != host {
		rsp, err := d.snoop(int(st.owner), line, cxl.SnpData)
		if err != nil {
			// RspRetry or a fabric error: the owner's state is
			// unchanged, so the directory record stays as it was.
			d.settleLine(line, nil, func(*dirLine) {})
			return err
		}
		if rsp.Opcode == cxl.RspIHit {
			dropped = st.owner // owner chose to drop rather than keep Shared
		} else {
			downgraded = st.owner
		}
	}
	d.settleLine(line, sink, func(l *dirLine) {
		if int(l.owner) == int(downgraded) && downgraded >= 0 {
			// The former owner kept a Shared copy.
			l.owner = -1
			l.sharers |= 1 << uint(downgraded)
		}
		if int(l.owner) == int(dropped) && dropped >= 0 {
			// The former owner surrendered the line entirely.
			l.owner = -1
		}
		if int(l.owner) == host {
			// Re-acquiring a line we already own exclusively: keep it.
			return
		}
		l.sharers |= 1 << uint(host)
	})
	d.stats.SharedGrants.Add(1)
	return nil
}

// acquireExclusive grants host exclusive ownership of the line,
// invalidating every remote copy first (SnpInv: write back if dirty,
// drop the line). On return the media holds the current data, no other
// host caches the line, and the host may cache it Exclusive/Modified.
//
// A sweep that fails partway (one holder's snoop errors or is
// deferred) aborts the grant but COMMITS the invalidations that did
// happen: hosts that already surrendered their copies must come off
// the record, or the next acquire on the line would snoop a host that
// holds nothing and wait forever for a release that cannot come.
func (d *Directory) acquireExclusive(host int, line uint64, sink grantSink) error {
	if err := d.checkReq(host, line); err != nil {
		return err
	}
	st := d.claimLine(line)
	var surrendered [MaxCoherentHosts]bool
	abort := func(err error) error {
		d.settleLine(line, nil, func(l *dirLine) {
			for h := 0; h < len(d.vppbs); h++ {
				if !surrendered[h] {
					continue
				}
				if int(l.owner) == h {
					l.owner = -1
				}
				l.sharers &^= 1 << uint(h)
			}
		})
		return err
	}
	if st.owner >= 0 && int(st.owner) != host {
		if _, err := d.snoop(int(st.owner), line, cxl.SnpInv); err != nil {
			return abort(err)
		}
		surrendered[st.owner] = true
	}
	for h := 0; h < len(d.vppbs); h++ {
		if h == host || st.sharers&(1<<uint(h)) == 0 {
			continue
		}
		if _, err := d.snoop(h, line, cxl.SnpInv); err != nil {
			return abort(err)
		}
		surrendered[h] = true
	}
	d.settleLine(line, sink, func(l *dirLine) {
		l.owner = int8(host)
		l.sharers = 0
	})
	d.stats.ExclusiveGrants.Add(1)
	return nil
}

// release drops host from the line's holder set — called by the host
// after a victim eviction, AFTER any dirty data reached the media
// through the host's own port. release never waits on the in-flight
// table: an acquire that snooped the evicting host and got RspMiss is
// blocked waiting for exactly this state change (deadlock-avoidance
// ordering: acquires wait on releases, never the reverse).
func (d *Directory) release(host int, line uint64) error {
	if err := d.checkReq(host, line); err != nil {
		return err
	}
	d.mu.Lock()
	l := &d.lines[line]
	if int(l.owner) == host {
		l.owner = -1
	}
	l.sharers &^= 1 << uint(host)
	d.cond.Broadcast()
	d.mu.Unlock()
	d.stats.Releases.Add(1)
	return nil
}
