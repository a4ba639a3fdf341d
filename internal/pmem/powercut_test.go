package pmem_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"cxlpmem/internal/chaos"
	"cxlpmem/internal/checkpoint"
	"cxlpmem/internal/core"
	"cxlpmem/internal/cxl"
	"cxlpmem/internal/fpga"
	"cxlpmem/internal/pmem"
	"cxlpmem/internal/topology"
	"cxlpmem/internal/units"
)

// Power-cut sweep through the real CXL persistence path. The pmem crash
// matrix (crashmatrix_test.go) cuts power on an in-memory region that
// applies each WriteAt whole; here the pool sits on Setup #1's CXL
// mount, and power fails at the Type-3 devices through the chaos
// engine's power-cut action. Each media access is one cut point: a
// line, one run of a MemWrPtl, one burst per interleave leg. A control
// run counts the workload's media writes; the sweep then cuts after
// each N from 0 to that count, crashes the pool and reopens it with
// Runtime.OpenPool. The cards are battery-backed, so their media
// survives the power cycle and recovery sees exactly the writes that
// landed.
//
// The workload is the crash matrix's: a transaction begun on every
// lane, two interleaved AddRanges per lane, every object rewritten in
// the view, then each Commit in turn. With a checkpoint directory (the
// 4-way sweep) one deduplicating Save against a base and one Delete
// follow. Invariants after each recovery:
//   - atomicity: every object reads all old or all new;
//   - determinism: a commit that completed before the cut reads new, one
//     that had not begun reads old, and one cut at its last write (the
//     lane header that is its commit point) reads old; Save and Delete
//     are held to the same boundaries;
//   - heap accounting: the heap walk succeeds, and its accounting equals
//     the control run's (without a checkpoint directory) or every live
//     block is accounted for (with one);
//   - checkpoints: the interrupted snapshot is listed whole or not at
//     all, every listed snapshot loads with its CRCs, and the only
//     leaked blocks are those the interrupted Save allocated or the
//     interrupted Delete was freeing;
//   - liveness: the reopened pool still allocates, frees and commits.
//
// Determinism holds at any GOMAXPROCS. Above one P an interleave set's
// legs write concurrently, so which leg's access gets which ordinal
// varies, but a striped call returns only once every leg has written:
// the first N writes are the same set whenever N falls on a call
// boundary, and every boundary asserted here is one.

const (
	cutPool     = "powercut"
	cutPoolSize = 2 << 20
	cutObjSize  = 128
	cutOld      = 0xA5
	cutChunks   = 16
)

// cutNew is the byte object i reads once its transaction commits.
func cutNew(i int) byte { return byte(0x10 + i) }

// cutSnapshots returns the sweep's checkpoint states: s2 differs from
// s1 in one chunk, and s3 from s2 in two more and a partial last chunk,
// so saving s3 against s2 shares most chunks.
func cutSnapshots() (s1, s2, s3 []byte) {
	s1 = make([]byte, cutChunks*checkpoint.ChunkSize)
	for i := range s1 {
		s1[i] = byte(i*7 + i>>9)
	}
	s2 = bytes.Clone(s1)
	s2[3*checkpoint.ChunkSize] ^= 0xFF
	s3 = bytes.Clone(s2)
	s3[5*checkpoint.ChunkSize+100] ^= 0xFF
	s3[11*checkpoint.ChunkSize+7] ^= 0xFF
	s3 = append(s3, bytes.Repeat([]byte{0x3C}, 700)...)
	return s1, s2, s3
}

// cutRig is one fresh Setup #1 with a pool on its CXL mount: TxLanes
// objects persisted as cutOld and, when it has a checkpoint directory,
// snapshots 1 and 2 saved.
type cutRig struct {
	rt   *core.Runtime
	node *topology.Node
	devs []*cxl.Type3Device
	pool *pmem.Pool
	oids []pmem.OID
	ckpt *checkpoint.Manager
}

func newCutRig(t *testing.T, ways int, withCheckpoint bool) *cutRig {
	t.Helper()
	rt, err := core.NewSetup1(topology.Setup1Options{
		FPGA:           fpga.Options{ChannelCapacity: 8 * units.MiB},
		InterleaveWays: ways,
	})
	if err != nil {
		t.Fatal(err)
	}
	n, ok := rt.CXLNode()
	if !ok {
		t.Fatal("no CXL node")
	}
	if n.Stripe != nil {
		t.Cleanup(n.Stripe.Close)
	}
	r := &cutRig{rt: rt, node: n}
	for _, rp := range n.Ports {
		r.devs = append(r.devs, rp.Endpoint().(*fpga.Prototype).Type3Device)
	}
	if r.pool, err = rt.CreatePool(n.ID, cutPool, cutPool, cutPoolSize); err != nil {
		t.Fatal(err)
	}
	r.oids = make([]pmem.OID, pmem.TxLanes)
	for i := range r.oids {
		if r.oids[i], err = r.pool.Alloc(cutObjSize); err != nil {
			t.Fatal(err)
		}
		v, err := r.pool.View(r.oids[i], cutObjSize)
		if err != nil {
			t.Fatal(err)
		}
		for j := range v {
			v[j] = cutOld
		}
		if err := r.pool.Persist(r.oids[i], cutObjSize); err != nil {
			t.Fatal(err)
		}
	}
	if withCheckpoint {
		if r.ckpt, err = checkpoint.New(r.pool, 4); err != nil {
			t.Fatal(err)
		}
		s1, s2, _ := cutSnapshots()
		if err := r.ckpt.Save(1, 0, s1); err != nil {
			t.Fatal(err)
		}
		if err := r.ckpt.Save(2, 1, s2); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// cutMarks are the workload's call boundaries, each a count of media
// writes: commit i ran over (commitStart[i], commitDone[i]], Save over
// (saveStart, saveDone] and Delete over (saveDone, deleteDone].
type cutMarks struct {
	commitStart, commitDone []int
	saveStart, saveDone     int
	deleteDone              int
}

// run drives the workload. writes, when set, reads the media-write
// count for the control run's marks. Past a cut every write vanishes
// but its call still succeeds, so an error stops the workload the way
// a crash would.
func (r *cutRig) run(writes func() int) (cutMarks, error) {
	var mk cutMarks
	txs := make([]*pmem.Tx, len(r.oids))
	for i := range txs {
		var err error
		if txs[i], err = r.pool.Begin(); err != nil {
			return mk, err
		}
	}
	// Lane 0's first entry, lane 1's first entry, ..., lane 0's second
	// entry, ...: a cut lands between appends of different lanes.
	for half := range uint64(2) {
		for i, tx := range txs {
			if err := tx.AddRange(r.oids[i], half*64, 64); err != nil {
				return mk, err
			}
		}
	}
	for i, oid := range r.oids {
		v, err := r.pool.View(oid, cutObjSize)
		if err != nil {
			return mk, err
		}
		for j := range v {
			v[j] = cutNew(i)
		}
	}
	mark := func(at *int) {
		if writes != nil {
			*at = writes()
		}
	}
	mk.commitStart = make([]int, len(txs))
	mk.commitDone = make([]int, len(txs))
	for i, tx := range txs {
		mark(&mk.commitStart[i])
		if err := tx.Commit(); err != nil {
			return mk, err
		}
		mark(&mk.commitDone[i])
	}
	if r.ckpt == nil {
		return mk, nil
	}
	_, _, s3 := cutSnapshots()
	mark(&mk.saveStart)
	if err := r.ckpt.Save(3, 2, s3); err != nil {
		return mk, err
	}
	mark(&mk.saveDone)
	if err := r.ckpt.Delete(1); err != nil {
		return mk, err
	}
	mark(&mk.deleteDone)
	return mk, nil
}

// liveBlocks returns p's live blocks.
func liveBlocks(t *testing.T, p *pmem.Pool) map[pmem.ObjectInfo]bool {
	t.Helper()
	objs, err := p.Objects()
	if err != nil {
		t.Fatal(err)
	}
	set := make(map[pmem.ObjectInfo]bool, len(objs))
	for _, o := range objs {
		set[o] = true
	}
	return set
}

// cutControl is what the control run records: the workload's media
// writes and marks, the heap report after it, and the live blocks
// before the workload (before), those Save allocated (saved) and those
// Delete freed (freed).
type cutControl struct {
	total                int
	marks                cutMarks
	report               pmem.CheckReport
	before, saved, freed map[pmem.ObjectInfo]bool
}

// powerCutControl runs the workload on a rig with every device counting
// its media writes through the power-cut hook, which drops none.
func powerCutControl(t *testing.T, ways int, withCheckpoint bool) cutControl {
	t.Helper()
	r := newCutRig(t, ways, withCheckpoint)
	var n atomic.Int64
	for _, d := range r.devs {
		d.SetPowerCut(func(uint64) bool {
			n.Add(1)
			return false
		})
	}
	c := cutControl{before: liveBlocks(t, r.pool)}
	var err error
	c.marks, err = r.run(func() int { return int(n.Load()) })
	if err != nil {
		t.Fatal(err)
	}
	c.total = int(n.Load())
	if c.report, err = r.pool.Check(); err != nil {
		t.Fatal(err)
	}
	if withCheckpoint {
		if r.ckpt.LastReused() == 0 {
			t.Fatal("control: Save shared no chunk with its base")
		}
		// Save and Delete allocate and free at the same offsets in every
		// run: the heap's volatile state advances the same way whether
		// or not a write lands.
		after := liveBlocks(t, r.pool)
		c.saved, c.freed = map[pmem.ObjectInfo]bool{}, map[pmem.ObjectInfo]bool{}
		for o := range after {
			if !c.before[o] {
				c.saved[o] = true
			}
		}
		for o := range c.before {
			if !after[o] {
				c.freed[o] = true
			}
		}
		if len(c.saved) == 0 || len(c.freed) == 0 {
			t.Fatalf("control: Save allocated %d blocks and Delete freed %d; the sweep needs both", len(c.saved), len(c.freed))
		}
	}
	for _, d := range r.devs {
		d.SetPowerCut(nil)
	}
	return c
}

// sweepCuts lists the cut points: every N from 0 to total, or under the
// race detector a sample that keeps both ends.
func sweepCuts(total int) []int {
	step := 1
	if raceEnabled {
		step = 3
	}
	var cuts []int
	for n := 0; n < total; n += step {
		cuts = append(cuts, n)
	}
	return append(cuts, total)
}

// powerCutOnce runs the workload with power cut after n media writes,
// crashes the pool, and checks the reopened pool against the control.
func powerCutOnce(t *testing.T, ways int, withCheckpoint bool, ctrl cutControl, n int) {
	t.Helper()
	r := newCutRig(t, ways, withCheckpoint)
	eng, err := chaos.NewEngine(chaos.Plan{Rules: []chaos.Rule{{
		Site: chaos.SiteMedia, Action: chaos.ActPowerCut, Trigger: chaos.Trigger{Nth: uint64(n) + 1},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range r.devs {
		eng.AttachDevice(d)
	}
	_, _ = r.run(nil)
	r.pool.SimulateCrash()
	eng.Disarm() // power restored
	if fired := eng.Fires(); (n < ctrl.total) != (fired == 1) {
		t.Fatalf("cut %d of %d: the cut fired %d times", n, ctrl.total, fired)
	}

	p2, err := r.rt.OpenPool(r.node.ID, cutPool, cutPool)
	if err != nil {
		t.Fatalf("cut %d: recovery failed: %v", n, err)
	}
	mk := ctrl.marks
	for i, oid := range r.oids {
		got, err := p2.View(oid, cutObjSize)
		if err != nil {
			t.Fatal(err)
		}
		isOld := bytes.Equal(got, bytes.Repeat([]byte{cutOld}, cutObjSize))
		isNew := bytes.Equal(got, bytes.Repeat([]byte{cutNew(i)}, cutObjSize))
		switch {
		case !isOld && !isNew:
			t.Fatalf("cut %d lane %d: torn object % x", n, i, got[:8])
		case n >= mk.commitDone[i] && !isNew:
			t.Errorf("cut %d lane %d: commit completed at write %d but the object rolled back", n, i, mk.commitDone[i])
		case n <= mk.commitStart[i] && !isOld:
			t.Errorf("cut %d lane %d: commit began at write %d but the object moved forward", n, i, mk.commitStart[i])
		case n == mk.commitDone[i]-1 && !isOld:
			t.Errorf("cut %d lane %d: the commit's lane-header write was dropped but the object moved forward", n, i)
		}
	}
	rep, err := p2.Check()
	if err != nil || rep.Corrupt {
		t.Fatalf("cut %d: heap walk after recovery: %+v, %v", n, rep, err)
	}
	if withCheckpoint {
		checkCutCheckpoint(t, p2, ctrl, n, rep)
	} else if rep != ctrl.report {
		t.Errorf("cut %d: heap accounting %+v, want %+v", n, rep, ctrl.report)
	}
	oid, err := p2.Alloc(64)
	if err != nil {
		t.Fatalf("cut %d: alloc after recovery: %v", n, err)
	}
	if err := p2.Update(oid, 0, 8, func(b []byte) error { b[0] = 1; return nil }); err != nil {
		t.Fatalf("cut %d: tx after recovery: %v", n, err)
	}
	if err := p2.Free(oid); err != nil {
		t.Fatalf("cut %d: free after recovery: %v", n, err)
	}
}

// checkCutCheckpoint holds the reopened checkpoint directory to the
// sweep's invariants.
func checkCutCheckpoint(t *testing.T, p2 *pmem.Pool, ctrl cutControl, n int, rep pmem.CheckReport) {
	t.Helper()
	m, err := checkpoint.Open(p2)
	if err != nil {
		t.Fatalf("cut %d: %v", n, err)
	}
	ids, err := m.List()
	if err != nil {
		t.Fatalf("cut %d: %v", n, err)
	}
	listed := map[uint64]bool{}
	for _, id := range ids {
		listed[id] = true
	}
	s1, s2, s3 := cutSnapshots()
	want := map[uint64][]byte{1: s1, 2: s2, 3: s3}
	for _, id := range ids {
		if got, err := m.Load(id); err != nil || !bytes.Equal(got, want[id]) {
			t.Fatalf("cut %d: listed snapshot %d does not load whole: %v", n, id, err)
		}
	}
	mk := ctrl.marks
	if !listed[2] {
		t.Fatalf("cut %d: snapshot 2 lost (listed %v)", n, ids)
	}
	if n <= mk.saveStart && listed[3] || n >= mk.saveDone && !listed[3] {
		t.Errorf("cut %d: Save ran over writes (%d, %d] but snapshot 3 listed = %v", n, mk.saveStart, mk.saveDone, listed[3])
	}
	if n <= mk.saveDone && !listed[1] || n >= mk.deleteDone && listed[1] {
		t.Errorf("cut %d: Delete ran over writes (%d, %d] but snapshot 1 listed = %v", n, mk.saveDone, mk.deleteDone, listed[1])
	}

	// Every block live before the step that Delete was not freeing is
	// still live; nothing outside those and Save's blocks is; a listed
	// snapshot's blocks are all live.
	live := liveBlocks(t, p2)
	if rep.AllocatedBlocks != len(live) {
		t.Errorf("cut %d: the heap walk counts %d allocated blocks, Objects lists %d", n, rep.AllocatedBlocks, len(live))
	}
	for o := range live {
		if !ctrl.before[o] && !ctrl.saved[o] {
			t.Errorf("cut %d: live block %+v was neither there before the step nor allocated by Save", n, o)
		}
	}
	for o := range ctrl.before {
		if !ctrl.freed[o] && !live[o] {
			t.Errorf("cut %d: block %+v lost", n, o)
		}
	}
	for id, blocks := range map[uint64]map[pmem.ObjectInfo]bool{3: ctrl.saved, 1: ctrl.freed} {
		for o := range blocks {
			if listed[id] && !live[o] {
				t.Errorf("cut %d: snapshot %d is listed but its block %+v is free", n, id, o)
			}
		}
	}
}

// powerCutSweep runs the control and then every cut point.
func powerCutSweep(t *testing.T, ways int, withCheckpoint bool) {
	ctrl := powerCutControl(t, ways, withCheckpoint)
	cuts := sweepCuts(ctrl.total)
	t.Logf("%d-way, GOMAXPROCS %d: %d media writes, %d cut points", ways, runtime.GOMAXPROCS(0), ctrl.total, len(cuts))
	for _, n := range cuts {
		powerCutOnce(t, ways, withCheckpoint, ctrl, n)
		if t.Failed() {
			return
		}
	}
}

// TestPowerCutSweepCXL1Way sweeps the cut over the multi-lane workload
// on the paper's single card.
func TestPowerCutSweepCXL1Way(t *testing.T) { powerCutSweep(t, 1, false) }

// TestPowerCutSweepCXL4Way sweeps the cut over the multi-lane workload,
// a deduplicating Save and a Delete on a 4-way interleave set, where a
// pool write that spans legs reaches the media as one access per leg.
func TestPowerCutSweepCXL4Way(t *testing.T) { powerCutSweep(t, 4, true) }

// TestPowerCutDropsLaneHeader cuts power at the last media write of a
// Commit on the 1-way mount: the 8-byte lane header that is its commit
// point, a MemWrPtl. The device answers it, so Commit succeeds, but the
// media keeps the active header, and recovery rolls the object back.
func TestPowerCutDropsLaneHeader(t *testing.T) {
	commit := func(r *cutRig) error {
		tx, err := r.pool.Begin()
		if err != nil {
			return err
		}
		if err := tx.AddRange(r.oids[0], 0, cutObjSize); err != nil {
			return err
		}
		v, err := r.pool.View(r.oids[0], cutObjSize)
		if err != nil {
			return err
		}
		for j := range v {
			v[j] = cutNew(0)
		}
		return tx.Commit()
	}
	// Control: the Commit's own media writes.
	r := newCutRig(t, 1, false)
	var writes atomic.Int64
	var last uint64
	r.devs[0].SetPowerCut(func(dpa uint64) bool {
		writes.Add(1)
		last = dpa
		return false
	})
	if err := commit(r); err != nil {
		t.Fatal(err)
	}
	total, headerDPA := writes.Load(), last
	if headerDPA%uint64(cxl.LineSize) != 0 {
		t.Fatalf("the Commit's last write is at DPA %#x, not a lane header", headerDPA)
	}

	r = newCutRig(t, 1, false)
	dev := r.devs[0]
	eng, err := chaos.NewEngine(chaos.Plan{Rules: []chaos.Rule{{
		Site: chaos.SiteMedia, Action: chaos.ActPowerCut, Trigger: chaos.Trigger{Nth: uint64(total)},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	eng.AttachDevice(dev)
	ptl := dev.Stats().PartialWrites.Load()
	if err := commit(r); err != nil {
		t.Fatalf("Commit across the cut: %v", err)
	}
	sched := eng.ScheduleString()
	if want := fmt.Sprintf("media/power-cut m%d k%02x @%#x\n", total, 0xFD, headerDPA); !bytes.HasSuffix([]byte(sched), []byte(want)) {
		t.Errorf("schedule %q, want one fire ending %q", sched, want)
	}
	if dev.Stats().PartialWrites.Load() == ptl {
		t.Error("the device counted no MemWrPtl for the Commit")
	}
	var hdr [8]byte
	if err := dev.Media().ReadAt(hdr[:], int64(headerDPA)); err != nil {
		t.Fatal(err)
	}
	if hdr != [8]byte{1, 0, 0, 0, 1, 0, 0, 0} {
		t.Errorf("lane header on media % x, want active with one entry", hdr)
	}
	r.pool.SimulateCrash()
	eng.Disarm()
	p2, err := r.rt.OpenPool(r.node.ID, cutPool, cutPool)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p2.View(r.oids[0], cutObjSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{cutOld}, cutObjSize)) {
		t.Errorf("object % x after recovery, want it rolled back", got[:8])
	}
}
