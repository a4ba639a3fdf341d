package coherency

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"cxlpmem/internal/cxl"
)

// lineBytes is the coherence granule: one CXL.mem cache line.
const lineBytes = uint64(cxl.LineSize)

// victimPool recycles victim-line staging buffers so the miss path
// stays allocation-free in steady state (see fill).
var victimPool = sync.Pool{New: func() any { return new([cxl.LineSize]byte) }}

// Host-side cache states. The order matters: a state >= csExclusive
// permits silent stores (csExclusive upgrades to csModified without a
// directory round trip, real MESI's silent E→M transition).
const (
	csInvalid uint8 = iota
	csShared
	csExclusive
	csModified
)

// lineFrame is one pooled cache-line frame. Frames are allocated once
// at construction and recycled by clock eviction, so the hit path and
// the steady-state miss path never touch the heap.
type lineFrame struct {
	line  uint64
	state uint8
	// ref is the clock-eviction reference bit.
	ref bool
	// busy pins the frame while a miss fill or a Shared→Exclusive
	// upgrade is in flight: the clock hand skips it and same-host
	// operations on its line wait on the cache cond.
	busy bool
	data [cxl.LineSize]byte
}

// CacheStats counts coherent-cache activity.
type CacheStats struct {
	Hits       atomic.Int64
	Misses     atomic.Int64
	Evictions  atomic.Int64
	Writebacks atomic.Int64
	// Upgrades counts Shared→Exclusive promotions.
	Upgrades atomic.Int64
	// SnoopsServed counts BISnp messages handled; SnoopWritebacks the
	// subset that flushed dirty data.
	SnoopsServed    atomic.Int64
	SnoopWritebacks atomic.Int64
}

// CoherentCache is one host's write-back cached view of a shared
// segment under hardware (directory) coherence — the successor of the
// Peterson Host: loads and stores are transparent, with no Acquire/
// Release/Flush/Invalidate discipline. It implements cxl.Snooper so the
// switch can deliver the directory's back-invalidate snoops.
//
// Locking: mu guards the frame table and is the leaf lock of the whole
// engine. Operations NEVER hold mu while calling into the directory
// (miss fills and upgrades release it first), while snoop delivery
// takes only mu — so the directory's per-line serialisation can always
// reach a host, whatever its own operations are blocked on. See
// DESIGN.md §2e for the full ordering argument.
type CoherentCache struct {
	id  int
	dir *Directory
	acc Accessor
	seg Segment

	mu   sync.Mutex
	cond *sync.Cond
	// lines maps a segment line index to its frame.
	lines map[uint64]int32
	// pending maps line indices whose miss fill is in flight to the
	// claimed frame; same-host operations on those lines wait on cond
	// until the fill lands (snoops consult grantHeld instead).
	pending map[uint64]int32
	// evicting marks lines whose victim write-back + directory release
	// are in flight. Same-host operations on such a line wait until the
	// release lands: re-acquiring it earlier would let the stale
	// release erase the fresh grant afterwards (the directory cannot
	// tell the two apart). Remote snoops do NOT wait here: they answer
	// RspMiss and the directory waits for the release, which is
	// exactly the eviction-race protocol.
	evicting map[uint64]bool
	// grantHeld marks lines for which this host holds a settled but
	// not-yet-consumed directory grant (set inside the directory's
	// settle via grantSettled; consumed by the fill/upgrade that
	// requested it). It plays two roles:
	//
	//   - a snoop for an UNMAPPED line may wait only when grantHeld is
	//     set — the fill holding the grant completes without further
	//     directory traffic. A grant-less pending fill (stale-snapshot
	//     snoop) must be answered RspMiss: it is parked on the very
	//     in-flight slot the snooper holds, and waiting would deadlock;
	//   - a snoop for a MAPPED line clears the flag: a conflicting
	//     transaction serialized AFTER our settle has revoked or
	//     downgraded the grant before we consumed it. The upgrade path
	//     re-checks the flag after re-locking and retries from scratch
	//     when it is gone — without this, a revoked upgrade would
	//     promote itself to Exclusive while the directory records
	//     another owner.
	grantHeld map[uint64]bool
	frames    []lineFrame
	hand      int

	stats CacheStats
}

// NewCoherentCache builds host id's cached view of the shared segment
// reached through acc (the host's root-port window accessor; the
// segment payload starts at seg.Base in that address space). capLines
// is the cache capacity in 64-byte lines.
func NewCoherentCache(id int, dir *Directory, acc Accessor, seg Segment, capLines int) (*CoherentCache, error) {
	if dir == nil {
		return nil, fmt.Errorf("coherency: nil directory")
	}
	if acc == nil {
		return nil, fmt.Errorf("coherency: nil accessor")
	}
	if id < 0 || id >= len(dir.vppbs) {
		return nil, fmt.Errorf("coherency: host id %d outside directory's 0..%d", id, len(dir.vppbs)-1)
	}
	if capLines < 1 {
		return nil, fmt.Errorf("coherency: cache capacity %d lines, want >= 1", capLines)
	}
	if seg.Size != dir.seg.Size || seg.Base != dir.seg.Base {
		return nil, fmt.Errorf("coherency: cache segment %+v does not match directory segment %+v", seg, dir.seg)
	}
	c := &CoherentCache{
		id:        id,
		dir:       dir,
		acc:       acc,
		seg:       seg,
		lines:     make(map[uint64]int32, capLines),
		pending:   make(map[uint64]int32),
		evicting:  make(map[uint64]bool),
		grantHeld: make(map[uint64]bool),
		frames:    make([]lineFrame, capLines),
	}
	c.cond = sync.NewCond(&c.mu)
	return c, nil
}

// grantSettled implements grantSink: the directory calls it inside its
// settle critical section, atomically with this host becoming a
// recorded holder of the line — so any snoop that observes the new
// record also observes grantHeld and waits for the install.
func (c *CoherentCache) grantSettled(line uint64) {
	c.mu.Lock()
	c.grantHeld[line] = true
	c.mu.Unlock()
}

// Stats exposes the cache counters.
func (c *CoherentCache) Stats() *CacheStats { return &c.stats }

// lineOff is the accessor-space byte offset of a segment line.
func (c *CoherentCache) lineOff(line uint64) int64 {
	return c.seg.Base + int64(line*lineBytes)
}

// victimLocked claims a frame by clock sweep, skipping busy frames and
// second-chancing referenced ones; callers hold c.mu. Blocks when every
// frame is pinned by an in-flight fill or upgrade.
func (c *CoherentCache) victimLocked() int32 {
	for {
		for scanned := 0; scanned < 2*len(c.frames); scanned++ {
			fr := &c.frames[c.hand]
			idx := int32(c.hand)
			c.hand = (c.hand + 1) % len(c.frames)
			if fr.busy {
				continue
			}
			if fr.state != csInvalid && fr.ref {
				fr.ref = false
				continue
			}
			return idx
		}
		c.cond.Wait()
	}
}

// acquireLine returns the frame holding the line, with c.mu HELD and
// the host's coherence state sufficient for the access (Shared for
// reads; Exclusive or Modified for writes — the caller marks the frame
// Modified after mutating it). On success the caller must unlock c.mu
// when done with the frame; on error the lock is already released. The
// hit path — the common case — takes the lock, one map probe, and
// returns: zero allocations, no directory traffic.
func (c *CoherentCache) acquireLine(line uint64, excl bool) (*lineFrame, error) {
	c.mu.Lock()
	for {
		if c.evicting[line] {
			// Our own victim release for this line is in flight: wait
			// for it to land before touching the line again (see the
			// evicting field).
			c.cond.Wait()
			continue
		}
		if idx, ok := c.lines[line]; ok {
			fr := &c.frames[idx]
			if !excl || fr.state >= csExclusive {
				fr.ref = true
				c.stats.Hits.Add(1)
				return fr, nil
			}
			// Shared copy, write intent: upgrade. The pending entry
			// serialises same-host operations on the line (a second
			// upgrader waits below instead of sharing the busy pin);
			// the busy bit pins the frame against eviction while we go
			// to the directory without the lock. Remote snoops are NOT
			// blocked: the line is still in the table, so HandleBISnp
			// acts on the frame directly.
			if _, ok := c.pending[line]; ok {
				c.cond.Wait()
				continue
			}
			c.pending[line] = idx
			fr.busy = true
			c.mu.Unlock()
			// The sink marks grantHeld inside the settle; any snoop of
			// this line processed after the settle clears it again
			// (revocation), so on re-lock the flag tells us whether the
			// grant is still ours to consume.
			err := c.dir.acquireExclusive(c.id, line, c)
			c.mu.Lock()
			fr.busy = false
			delete(c.pending, line)
			granted := c.grantHeld[line]
			delete(c.grantHeld, line)
			c.cond.Broadcast()
			if err != nil {
				c.mu.Unlock()
				return nil, err
			}
			if !granted {
				// A conflicting transaction serialized after our settle
				// and snooped the grant away (SnpInv revocation or
				// SnpData downgrade) before we could consume it. We hold
				// no exclusivity — start the whole operation over.
				continue
			}
			if i2, ok := c.lines[line]; ok {
				if i2 == idx && fr.state != csInvalid {
					// Grant intact and the copy untouched: we own it.
					fr.state = csExclusive
					fr.ref = true
					c.stats.Upgrades.Add(1)
					return fr, nil
				}
				continue // reinstalled in another frame meanwhile
			}
			// A concurrent remote exclusive won the line slot first and
			// its SnpInv dropped our copy BEFORE our acquire settled
			// (the grant itself is intact — a post-settle snoop would
			// have cleared it above); the directory records us as owner
			// but we hold no data. Refill with the grant in hand.
			if fr2, err := c.fill(line, excl, false); err != nil || fr2 != nil {
				return fr2, err
			}
			continue
		}
		if _, ok := c.pending[line]; ok {
			c.cond.Wait()
			continue
		}
		// Miss: acquire from the directory, then fill.
		if fr, err := c.fill(line, excl, true); err != nil || fr != nil {
			return fr, err
		}
	}
}

// fill runs the miss path for a line: claims a victim frame, evicts it
// (dirty write-back through this host's port, then a directory
// release), acquires the requested grant when acquire is true (the
// upgrade-race path arrives with the grant already held), fills the
// frame from the media and installs it. Called with c.mu held; the
// directory and media round trips run unlocked. Returns with c.mu held
// unless err != nil (then the lock is released). A nil frame with nil
// error means the line was installed by a concurrent same-host
// operation while this one waited for a free frame — the caller
// retries.
func (c *CoherentCache) fill(line uint64, excl, acquire bool) (*lineFrame, error) {
	// Register the pending entry BEFORE hunting for a frame: if this is
	// the upgrade-race refill (grant already held), the directory may
	// snoop us for this line at any moment, and victimLocked can drop
	// the lock while it waits — the line must stay discoverable (the
	// snoop then blocks until the install) or the handler would answer
	// RspMiss and the directory would wait for a release that never
	// comes. The placeholder index is updated once the frame is known.
	c.pending[line] = -1
	if !acquire {
		c.grantHeld[line] = true // upgrade-race refill: grant in hand
	}
	idx := c.victimLocked()
	if _, ok := c.lines[line]; ok {
		delete(c.pending, line)
		delete(c.grantHeld, line)
		c.cond.Broadcast()
		return nil, nil // installed while waiting for a frame
	}
	fr := &c.frames[idx]
	victim, vstate := fr.line, fr.state
	// The victim snapshot stages through a pooled buffer: a local array
	// would escape through the accessor interface and put an allocation
	// on every miss.
	vdata := victimPool.Get().(*[cxl.LineSize]byte)
	defer victimPool.Put(vdata)
	if vstate == csModified {
		*vdata = fr.data
	}
	if vstate != csInvalid {
		delete(c.lines, victim)
		// The victim's write-back + directory release run unlocked
		// below; same-host operations on it must wait for the release
		// to land (acquireLine's evicting check) or a stale release
		// could erase their fresh grant.
		c.evicting[victim] = true
		c.stats.Evictions.Add(1)
	}
	fr.state = csInvalid
	fr.busy = true
	c.pending[line] = idx
	c.stats.Misses.Add(1)
	c.mu.Unlock()

	granted, err := c.evictAndFill(fr, line, victim, vstate, vdata[:], excl, acquire)

	c.mu.Lock()
	delete(c.pending, line)
	delete(c.grantHeld, line)
	if vstate != csInvalid {
		delete(c.evicting, victim) // release landed inside evictAndFill
	}
	fr.busy = false
	c.cond.Broadcast()
	if err != nil {
		c.mu.Unlock()
		if granted {
			// We hold a grant for a line we could not fill: hand it
			// back, or the directory would wait forever for our release
			// the next time the line is snooped.
			_ = c.dir.release(c.id, line)
		}
		return nil, err
	}
	fr.line = line
	if excl {
		fr.state = csExclusive
	} else {
		fr.state = csShared
	}
	fr.ref = true
	c.lines[line] = idx
	return fr, nil
}

// evictAndFill is the unlocked body of the miss path: victim
// write-back, victim release, grant acquisition, media fill. granted
// reports whether the caller holds a directory grant for line on
// return (the caller must release it if the fill failed).
func (c *CoherentCache) evictAndFill(fr *lineFrame, line, victim uint64, vstate uint8, vdata []byte, excl, acquire bool) (granted bool, err error) {
	granted = !acquire // the upgrade-race path arrives with the grant held
	if vstate == csModified {
		if werr := c.acc.WriteAt(vdata, c.lineOff(victim)); werr != nil {
			// The victim's bytes are lost to this error; release anyway
			// so the directory does not wait forever for a write-back
			// that will never land. The caller sees the error.
			_ = c.dir.release(c.id, victim)
			return granted, werr
		}
		c.stats.Writebacks.Add(1)
	}
	if vstate != csInvalid {
		if rerr := c.dir.release(c.id, victim); rerr != nil {
			return granted, rerr
		}
	}
	if acquire {
		// The sink flags grantHeld[line] inside the directory's settle,
		// atomically with this host becoming a recorded holder — a
		// snoop observing the new record is guaranteed to find the flag
		// and wait for the install instead of answering RspMiss.
		if excl {
			err = c.dir.acquireExclusive(c.id, line, c)
		} else {
			err = c.dir.acquireShared(c.id, line, c)
		}
		if err != nil {
			return false, err
		}
		granted = true
	}
	return granted, c.acc.ReadAt(fr.data[:], c.lineOff(line))
}

// checkRange validates a payload access.
func (c *CoherentCache) checkRange(n int, off int64) error {
	if off < 0 || off+int64(n) > c.seg.Size {
		return fmt.Errorf("coherency: host %d: access [%d,%d) outside segment of %d bytes", c.id, off, off+int64(n), c.seg.Size)
	}
	return nil
}

// Read copies payload bytes [off, off+len(p)) into p through the
// coherent cache. No prior Acquire or Invalidate is needed: remote
// writes are visible as soon as they complete, enforced by the
// directory.
func (c *CoherentCache) Read(p []byte, off int64) error {
	if err := c.checkRange(len(p), off); err != nil {
		return err
	}
	for len(p) > 0 {
		line := uint64(off) / lineBytes
		lo := int(uint64(off) % lineBytes)
		n := int(lineBytes) - lo
		if n > len(p) {
			n = len(p)
		}
		fr, err := c.acquireLine(line, false)
		if err != nil {
			return err
		}
		copy(p[:n], fr.data[lo:lo+n])
		c.mu.Unlock()
		p = p[n:]
		off += int64(n)
	}
	return nil
}

// Write stores p at payload offset off through the coherent cache
// (write-back: the media sees it on eviction or when another host's
// access snoops it out).
func (c *CoherentCache) Write(p []byte, off int64) error {
	if err := c.checkRange(len(p), off); err != nil {
		return err
	}
	for len(p) > 0 {
		line := uint64(off) / lineBytes
		lo := int(uint64(off) % lineBytes)
		n := int(lineBytes) - lo
		if n > len(p) {
			n = len(p)
		}
		fr, err := c.acquireLine(line, true)
		if err != nil {
			return err
		}
		copy(fr.data[lo:lo+n], p[:n])
		fr.state = csModified
		c.mu.Unlock()
		p = p[n:]
		off += int64(n)
	}
	return nil
}

// Load returns the 8-byte little-endian word at payload offset off
// (must be 8-byte aligned, so it sits within one line).
func (c *CoherentCache) Load(off int64) (uint64, error) {
	if off%8 != 0 {
		return 0, fmt.Errorf("coherency: host %d: unaligned load at %d", c.id, off)
	}
	if err := c.checkRange(8, off); err != nil {
		return 0, err
	}
	line := uint64(off) / lineBytes
	lo := uint64(off) % lineBytes
	fr, err := c.acquireLine(line, false)
	if err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(fr.data[lo:])
	c.mu.Unlock()
	return v, nil
}

// Store writes the 8-byte little-endian word at payload offset off.
func (c *CoherentCache) Store(off int64, v uint64) error {
	if off%8 != 0 {
		return fmt.Errorf("coherency: host %d: unaligned store at %d", c.id, off)
	}
	if err := c.checkRange(8, off); err != nil {
		return err
	}
	line := uint64(off) / lineBytes
	lo := uint64(off) % lineBytes
	fr, err := c.acquireLine(line, true)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(fr.data[lo:], v)
	fr.state = csModified
	c.mu.Unlock()
	return nil
}

// FetchAdd atomically adds delta to the word at payload offset off and
// returns the new value. Atomicity across hosts comes from MESI
// ownership: the read-modify-write runs under the cache lock with the
// line held Modified, and no other host can touch the line without a
// snoop, which needs that same lock — the software shape of a LOCK ADD
// holding the line in M state.
func (c *CoherentCache) FetchAdd(off int64, delta uint64) (uint64, error) {
	if off%8 != 0 {
		return 0, fmt.Errorf("coherency: host %d: unaligned fetch-add at %d", c.id, off)
	}
	if err := c.checkRange(8, off); err != nil {
		return 0, err
	}
	line := uint64(off) / lineBytes
	lo := uint64(off) % lineBytes
	fr, err := c.acquireLine(line, true)
	if err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(fr.data[lo:]) + delta
	binary.LittleEndian.PutUint64(fr.data[lo:], v)
	fr.state = csModified
	c.mu.Unlock()
	return v, nil
}

// WritebackAll flushes every dirty line to the media and downgrades it
// to Exclusive, releasing nothing. It is NOT part of the coherence
// contract (remote readers never need it) — it exists for orderly
// shutdown and for tests that inspect raw media.
func (c *CoherentCache) WritebackAll() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for idx := range c.frames {
		fr := &c.frames[idx]
		if fr.state != csModified {
			continue
		}
		if err := c.acc.WriteAt(fr.data[:], c.lineOff(fr.line)); err != nil {
			return err
		}
		fr.state = csExclusive
		c.stats.Writebacks.Add(1)
	}
	return nil
}

// HandleBISnp implements cxl.Snooper: the directory recalling a line.
// Dirty data is written back through this host's own port BEFORE the
// response is sent (the BIRsp carries state only, like real CXL 3.0).
// A line whose miss fill is still in flight blocks the snoop until the
// fill installs; a line this cache no longer holds answers RspMiss —
// if a victim write-back is in flight the directory waits for the
// matching Release, which this cache issues only after the write-back
// reached the media.
func (c *CoherentCache) HandleBISnp(req cxl.BISnp) cxl.BIRsp {
	c.stats.SnoopsServed.Add(1)
	rel := req.Addr - uint64(c.seg.Base)
	line := rel / lineBytes
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if idx, ok := c.lines[line]; ok {
			// This snoop was serialized after whatever transaction last
			// granted us the line: if an upgrade's settled grant is
			// still unconsumed, it is hereby revoked/downgraded — clear
			// the flag so the upgrade retries instead of assuming
			// exclusivity the directory no longer records (a mapped
			// line's grantHeld can only belong to an upgrade; fills run
			// only for unmapped lines).
			delete(c.grantHeld, line)
			fr := &c.frames[idx]
			dirty := fr.state == csModified
			if dirty {
				if err := c.acc.WriteAt(fr.data[:], c.lineOff(line)); err != nil {
					// The write-back failed: keep the line, keep the
					// data, and tell the directory to abort the
					// conflicting grant (RspRetry) — our record and our
					// cache stay consistent, and the requester sees the
					// conflict as an error instead of reading stale
					// media.
					return cxl.BIRsp{Opcode: cxl.RspRetry}
				}
				c.stats.SnoopWritebacks.Add(1)
			}
			if req.Opcode == cxl.SnpInv {
				delete(c.lines, line)
				fr.state = csInvalid
				c.cond.Broadcast()
				return cxl.BIRsp{Opcode: cxl.RspIHit, Dirty: dirty}
			}
			fr.state = csShared
			return cxl.BIRsp{Opcode: cxl.RspSHit, Dirty: dirty}
		}
		if c.grantHeld[line] {
			// Fill in flight WITH its directory grant: it completes
			// without further directory traffic — wait for the install,
			// then act on the fresh frame. A grant-less pending fill
			// (stale-snapshot snoop) must NOT be waited on: it is
			// parked on the in-flight slot our snooper holds; RspMiss
			// is the truthful answer — this host holds nothing.
			c.cond.Wait()
			continue
		}
		return cxl.BIRsp{Opcode: cxl.RspMiss}
	}
}
