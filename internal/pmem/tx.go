package pmem

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
)

// Undo-log transactions, the pmemobj_tx machinery STREAM-PMem relies on
// for transactional integrity (§1.4: the transaction "ensures that
// either all of the modifications are successfully applied or none of
// them take effect").
//
// Protocol (all log writes go straight to the media, never only to the
// view, so the log itself is crash-safe):
//
//  1. AddRange snapshots the current media content of a range into the
//     log and persists the entry before the caller mutates the view.
//  2. The caller mutates the mapped view freely.
//  3. Commit persists every added range view→media, then — and only
//     then — invalidates the log in a single atomic-width write.
//  4. Recovery (pool Open) finds a valid, non-empty log and applies the
//     snapshots back onto the media: the transaction never happened.
//
// Concurrency. The log region [logOff, logOff+logSize) is carved into
// TxLanes equal lanes, one per in-flight transaction — the multi-lane
// analogue of PMDK's per-thread transaction scopes. Begin claims a free
// lane (blocking when all are busy), AddRange/Commit/Abort touch only
// that lane, and recovery walks every lane: any subset of transactions
// torn by a crash rolls back independently. Transactions on disjoint
// objects therefore run and commit fully in parallel; single-writer
// semantics per object remain the caller's contract (two goroutines
// must not transact over the same object concurrently).
//
// Lane layout inside [laneBase, laneBase+laneSize):
//
//	0:4   state: 0 = idle, 1 = active
//	4:8   entry count (u32)
//	8:    entries
//
// entry: [off u64][len u64][crc u32][pad u32][data ...] padded to 8.
//
// Every write of the state word writes the count word with it, as one
// 8-byte header store, the failure-atomic unit PMDK relies on: the lane
// is never seen active with a stale count or idle with a live one. The
// lane base is line-aligned, so over CXL.mem the header is a single
// MemWrPtl. Each write leaves the header idle with no entries except
// the one that makes a lane active, so Begin writes nothing: the first
// AddRange writes its entry, then the header as active with one entry.
// Later AddRanges write the count word alone, after their entry. Either
// way the count write is the recovery fence. Commit's header write back
// to idle is the commit point, and a transaction that added no range
// finishes without one.
const (
	logState = 0
	logCount = 4
	// laneHeaderSize is the per-lane control block; entries follow.
	laneHeaderSize = 8

	logIdle   uint32 = 0
	logActive uint32 = 1

	entryHeaderSize = 24
)

// TxError is a transaction failure.
type TxError struct {
	Op  string
	Why string
}

func (e *TxError) Error() string { return fmt.Sprintf("pmem: tx %s: %s", e.Op, e.Why) }

// Tx is an open transaction bound to one undo-log lane. A Tx is owned
// by the goroutine that began it; its methods must not be called
// concurrently (PMDK scopes transactions per-thread the same way).
type Tx struct {
	p    *Pool
	lane *txLane
	done bool
}

// txLane is one undo-log lane's pool-owned state. A lane carries one
// transaction at a time, so every transaction it carries reuses its
// buffers, and Update, which runs on the lane's own Tx, allocates
// nothing. The buffers reach Region.ReadAt and WriteAt, which must not
// keep them.
type txLane struct {
	idx    uint64 // lane index in [0, TxLanes)
	cursor uint64 // next free byte in the lane, relative to lane base
	count  uint32 // entries written
	ranges []txRange
	// entry stages one undo entry, header and snapshot, on its way to
	// or from the media; it grows to the largest entry the lane has
	// carried.
	entry []byte
	// words stages the lane's state and count words, laid out as the
	// lane header is.
	words [laneHeaderSize]byte
	tx    Tx // the transaction Update runs on
}

type txRange struct {
	off uint64
	n   uint64
}

// buf returns the lane's entry buffer sized to n bytes.
func (l *txLane) buf(n uint64) []byte {
	if uint64(cap(l.entry)) < n {
		l.entry = make([]byte, n)
	}
	return l.entry[:n]
}

// laneSize is the per-lane byte budget.
func (p *Pool) laneSize() uint64 { return p.logSize / TxLanes }

// TxSnapshotLimit reports the largest single range one AddRange call
// can snapshot in this pool (the lane budget minus lane and entry
// headers). Callers that persist large state blobs transactionally
// should validate against it at setup time rather than discover a
// full lane at Save time.
func (p *Pool) TxSnapshotLimit() uint64 {
	return (p.laneSize() - laneHeaderSize - entryHeaderSize) &^ 7
}

// laneBase is the absolute offset of a lane's control block.
func (p *Pool) laneBase(lane uint64) uint64 { return p.logOff + lane*p.laneSize() }

// Begin opens a transaction (TX_BEGIN), claiming a free undo-log lane.
// When all TxLanes lanes carry in-flight transactions, Begin waits,
// holding no pool lock, until one commits or aborts; waiters get lanes
// in the order they began to wait. Begin fails once every lane is
// lost. The Tx is fresh, so one kept after it finishes keeps failing
// and never touches the lane's next transaction.
func (p *Pool) Begin() (*Tx, error) {
	p.stateMu.RLock()
	l, err := p.claimLane()
	p.stateMu.RUnlock()
	if err != nil {
		return nil, err
	}
	return &Tx{p: p, lane: l}, nil
}

// claimLane takes a free lane and resets its volatile state. It writes
// nothing: the lane's header on media already reads idle with no
// entries, and the first AddRange marks it active. The caller holds
// stateMu for read. When no lane is free, claimLane drops the lock to
// wait for one and takes it again: a waiter holding it would keep Close
// and SimulateCrash from running, and with them the stranded
// transactions it waits on from finishing.
func (p *Pool) claimLane() (*txLane, error) {
	if err := p.checkLive("tx-begin"); err != nil {
		return nil, err
	}
	l := p.takeLane()
	if l == nil {
		// A waiter counts itself before it looks at the set again, and
		// putLane sets its bit before it reads the count, so one of the
		// two sees the other and no lane stays free while a waiter waits.
		p.laneWaiters.Add(1)
		if l = p.takeLane(); l == nil {
			p.stateMu.RUnlock()
			l = <-p.lanes
			p.stateMu.RLock()
		}
		p.laneWaiters.Add(-1)
		if err := p.checkLive("tx-begin"); err != nil {
			if l != nil {
				p.putLane(l)
			}
			return nil, err
		}
		if l == nil {
			// lanes is closed: the last lane was lost.
			return nil, &TxError{Op: "begin", Why: "all undo-log lanes lost to I/O failures; reopen the pool to recover"}
		}
	}
	l.cursor, l.count, l.ranges = laneHeaderSize, 0, l.ranges[:0]
	return l, nil
}

// takeLane clears the lowest bit of the free-lane set and returns its
// lane, or nil when no lane is free.
func (p *Pool) takeLane() *txLane {
	for {
		free := p.freeLanes.Load()
		if free == 0 {
			return nil
		}
		if p.freeLanes.CompareAndSwap(free, free&(free-1)) {
			return &p.lane[bits.TrailingZeros32(free)]
		}
	}
}

// putLane frees a lane. When goroutines wait for one, it takes a free
// lane back at once and sends it to the longest waiter.
func (p *Pool) putLane(l *txLane) {
	p.freeLanes.Or(1 << l.idx)
	if p.laneWaiters.Load() == 0 {
		return
	}
	if l = p.takeLane(); l != nil {
		p.lanes <- l
	}
}

// release returns the transaction's lane; called once per Tx, when it
// finishes cleanly or the pool is dead.
func (tx *Tx) release() {
	tx.done = true
	tx.p.putLane(tx.lane)
}

// abandon retires the transaction WITHOUT recycling its lane: after an
// I/O failure mid-Abort the lane's on-media undo entries are the only
// copy of the pre-transaction state, so the lane must stay out of
// circulation (a new transaction claiming it would overwrite them)
// until recovery at the next Open replays it. Each abandonment
// permanently costs one lane; Begin reports when none remain. The last
// one closes lanes, which no lane can be sent on any more, so every
// Begin waiting for a lane wakes and fails.
func (tx *Tx) abandon() {
	tx.done = true
	if tx.p.lanesLost.Add(1) == TxLanes {
		close(tx.p.lanes)
	}
}

// AddRange snapshots [oid.Off+off, +n) so it can be rolled back
// (pmemobj_tx_add_range). Must be called before mutating the range.
func (tx *Tx) AddRange(oid OID, off, n uint64) error {
	if tx.done {
		return &TxError{Op: "add-range", Why: "transaction finished"}
	}
	tx.p.stateMu.RLock()
	defer tx.p.stateMu.RUnlock()
	return tx.addRange(oid, off, n)
}

// addRange is AddRange's body; the caller holds stateMu for read.
func (tx *Tx) addRange(oid OID, off, n uint64) error {
	p, l := tx.p, tx.lane
	if err := p.checkLive("tx-add"); err != nil {
		return err
	}
	if n == 0 {
		return &TxError{Op: "add-range", Why: "zero length"}
	}
	if err := p.checkOID("tx-add", oid, off, n); err != nil {
		return err
	}
	start := oid.Off + off
	padded := alignUp64(n, 8)
	need := entryHeaderSize + padded
	if l.cursor+need > p.laneSize() {
		return &TxError{Op: "add-range", Why: "undo log lane full"}
	}
	// Snapshot MEDIA content (the pre-transaction persistent state),
	// not the view: rollback must restore what recovery would see. It
	// lands straight behind the entry header.
	entry := l.buf(need)
	snap := entry[entryHeaderSize:]
	if err := p.region.ReadAt(snap[:n], int64(start)); err != nil {
		return err
	}
	clear(snap[n:])
	binary.LittleEndian.PutUint64(entry[0:], start)
	binary.LittleEndian.PutUint64(entry[8:], n)
	binary.LittleEndian.PutUint32(entry[16:], crc32.Checksum(snap[:n], crcTable))
	binary.LittleEndian.PutUint32(entry[20:], 0)
	if err := p.region.WriteAt(entry, int64(p.laneBase(l.idx)+l.cursor)); err != nil {
		return err
	}
	// Entry persisted; only then count it (the recovery fence).
	l.cursor += need
	l.count++
	if err := p.laneWriteCount(l); err != nil {
		return err
	}
	l.ranges = append(l.ranges, txRange{off: start, n: n})
	p.stats.Persists.Add(1)
	p.stats.PersistBytes.Add(int64(len(entry)))
	return nil
}

// Commit persists every added range and retires the lane (TX_COMMIT).
// On an I/O failure before the commit point the transaction stays
// open — nothing committed, the lane still leased — and the caller's
// recovery path is Abort, which rolls the media and view back.
func (tx *Tx) Commit() error {
	p := tx.p
	if tx.done {
		return &TxError{Op: "commit", Why: "transaction finished"}
	}
	p.stateMu.RLock()
	defer p.stateMu.RUnlock()
	if err := p.checkLive("tx-commit"); err != nil {
		// The pool is gone (closed or crashed): this transaction can
		// never proceed, so its lane must not stay leased — a leaked
		// lane would eventually deadlock Begin. Recovery at the next
		// Open rolls the lane back.
		tx.release()
		return err
	}
	for _, r := range tx.lane.ranges {
		if err := p.persistRaw(int64(r.off), int64(r.n)); err != nil {
			return err
		}
	}
	p.Drain()
	// The commit point: a single 8-byte lane-header write (idle, no
	// entries). Before it, recovery rolls this lane back; after it,
	// the new data is the truth. A transaction that counted no entry
	// left the header idle and has no commit point to write.
	if tx.lane.count > 0 {
		if err := p.clearLane(tx.lane); err != nil {
			return err
		}
	}
	tx.release()
	p.stats.TxCommits.Add(1)
	return nil
}

// Abort rolls the added ranges back on media and in the view
// (TX_ABORT).
func (tx *Tx) Abort() error {
	p := tx.p
	if tx.done {
		return &TxError{Op: "abort", Why: "transaction finished"}
	}
	p.stateMu.RLock()
	defer p.stateMu.RUnlock()
	if err := p.checkLive("tx-abort"); err != nil {
		// See Commit: a dead pool means the lane lease must be
		// returned here, not leaked.
		tx.release()
		return err
	}
	// A transaction that counted no entry left its lane idle on media,
	// with nothing to roll back.
	if l := tx.lane; l.count > 0 {
		if err := p.replayLane(l, p.region.ReadAt); err != nil {
			tx.abandon()
			return err
		}
		// Refresh the view from the restored media.
		for _, r := range l.ranges {
			if err := p.region.ReadAt(p.view[r.off:r.off+r.n], int64(r.off)); err != nil {
				tx.abandon()
				return err
			}
		}
		if err := p.clearLane(l); err != nil {
			tx.abandon()
			return err
		}
	}
	tx.release()
	p.stats.TxAborts.Add(1)
	return nil
}

// laneWriteCount writes a lane's entry count straight to media, the
// recovery fence after each entry: the first entry's count together
// with the active state as one header store, a later one's as the
// count word alone.
func (p *Pool) laneWriteCount(l *txLane) error {
	if l.count == 1 {
		return p.laneWriteHeader(l, logActive, 1)
	}
	b := l.words[logCount:]
	binary.LittleEndian.PutUint32(b, l.count)
	return p.region.WriteAt(b, int64(p.laneBase(l.idx)+logCount))
}

// laneWriteHeader writes a lane's state and entry count words straight
// to media as one 8-byte store.
func (p *Pool) laneWriteHeader(l *txLane, state, count uint32) error {
	binary.LittleEndian.PutUint32(l.words[logState:], state)
	binary.LittleEndian.PutUint32(l.words[logCount:], count)
	return p.region.WriteAt(l.words[:], int64(p.laneBase(l.idx)))
}

// clearLane marks one lane idle, with no entries, on media.
func (p *Pool) clearLane(l *txLane) error { return p.laneWriteHeader(l, logIdle, 0) }

// clearLog marks every lane idle on media (pool creation / recovery).
func (p *Pool) clearLog() error {
	for i := range p.lane {
		if err := p.clearLane(&p.lane[i]); err != nil {
			return err
		}
	}
	return nil
}

// replayLane walks one undo-log lane through readAt — the media for
// Abort, the in-memory view for crash recovery at Open — validating
// each entry's bounds and CRC, and writes every snapshot back onto the
// media (and the view, when one is mapped). One implementation of the
// entry format serves both rollback paths. Entries are read into the
// lane's entry buffer.
func (p *Pool) replayLane(l *txLane, readAt func(b []byte, off int64) error) error {
	base := p.laneBase(l.idx)
	cnt := l.words[logCount:]
	if err := readAt(cnt, int64(base+logCount)); err != nil {
		return err
	}
	count := binary.LittleEndian.Uint32(cnt)
	cursor := uint64(laneHeaderSize)
	for i := uint32(0); i < count; i++ {
		if cursor+entryHeaderSize > p.laneSize() {
			return &TxError{Op: "recover", Why: fmt.Sprintf("lane %d entry %d malformed", l.idx, i)}
		}
		hdr := l.buf(entryHeaderSize)
		if err := readAt(hdr, int64(base+cursor)); err != nil {
			return err
		}
		off := binary.LittleEndian.Uint64(hdr[0:])
		n := binary.LittleEndian.Uint64(hdr[8:])
		wantCRC := binary.LittleEndian.Uint32(hdr[16:])
		padded := alignUp64(n, 8)
		// Bounding n first keeps padded from wrapping. The target must
		// pass the range check every AddRange passed: inside the heap.
		if n > p.laneSize() || cursor+entryHeaderSize+padded > p.laneSize() ||
			p.checkOID("recover", OID{PoolID: p.poolID, Off: off}, 0, n) != nil {
			return &TxError{Op: "recover", Why: fmt.Sprintf("lane %d entry %d malformed", l.idx, i)}
		}
		data := l.buf(padded)[:n]
		if err := readAt(data, int64(base+cursor+entryHeaderSize)); err != nil {
			return err
		}
		if crc32.Checksum(data, crcTable) != wantCRC {
			return &TxError{Op: "recover", Why: fmt.Sprintf("lane %d entry %d checksum mismatch", l.idx, i)}
		}
		if err := p.region.WriteAt(data, int64(off)); err != nil {
			return err
		}
		if p.view != nil {
			copy(p.view[off:off+n], data)
		}
		cursor += entryHeaderSize + padded
	}
	return nil
}

// recoverLogFromView runs at Open, after the pool image has been read
// into the view with a single media scan: every lane left active by a
// crash is parsed out of the in-memory image (identical to what a media
// read would return, since log writes always go straight to the media)
// and its snapshots are applied to both the media and the view.
// Transaction ranges live in the heap and the log in its own region, so
// an entry's data and its restore target never overlap.
func (p *Pool) recoverLogFromView() error {
	viewRead := func(b []byte, off int64) error {
		copy(b, p.view[off:])
		return nil
	}
	for i := range p.lane {
		l := &p.lane[i]
		base := p.laneBase(l.idx)
		laneHdr := p.view[base : base+laneHeaderSize]
		if binary.LittleEndian.Uint32(laneHdr[logState:]) != logActive {
			continue
		}
		if err := p.replayLane(l, viewRead); err != nil {
			return err
		}
		if err := p.clearLane(l); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(laneHdr[logState:], logIdle)
		binary.LittleEndian.PutUint32(laneHdr[logCount:], 0)
	}
	return nil
}

// Update runs fn inside a transaction over the given range: the range
// is snapshotted, fn mutates the returned view slice, and the change
// commits atomically. Any error aborts. This is the TX_BEGIN/TX_ADD/
// TX_END convenience macro. Updates over disjoint objects may run
// concurrently from many goroutines. The transaction runs on its lane's
// own Tx, so an Update that commits allocates nothing. It holds
// stateMu for read twice: once from the lane claim through the snapshot
// and the slicing of fn's view, and once in Commit; fn runs with no
// pool lock held.
func (p *Pool) Update(oid OID, off, n uint64, fn func(view []byte) error) error {
	p.stateMu.RLock()
	l, err := p.claimLane()
	if err != nil {
		p.stateMu.RUnlock()
		return err
	}
	tx := &l.tx
	*tx = Tx{p: p, lane: l}
	var view []byte
	if err = tx.addRange(oid, off, n); err == nil {
		view = p.object(oid, off, n)
	}
	p.stateMu.RUnlock()
	if err == nil {
		err = fn(view)
	}
	if err != nil {
		if abortErr := tx.Abort(); abortErr != nil {
			return fmt.Errorf("%w (abort also failed: %v)", err, abortErr)
		}
		return err
	}
	return tx.Commit()
}
