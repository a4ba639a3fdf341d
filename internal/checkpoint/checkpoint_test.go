package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"testing"

	"cxlpmem/internal/pmem"
)

// memRegion is a persistent in-memory pmem.Region. It counts region
// writes; once cutAfter is non-zero, writes past that many never reach
// the media (power was lost), and write number failAt, when non-zero,
// fails with an I/O error.
type memRegion struct {
	mu       sync.Mutex
	data     []byte
	writes   int
	cutAfter int
	failAt   int
}

func (r *memRegion) ReadAt(p []byte, off int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if off < 0 || off+int64(len(p)) > int64(len(r.data)) {
		return errors.New("out of range")
	}
	copy(p, r.data[off:])
	return nil
}

func (r *memRegion) WriteAt(p []byte, off int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if off < 0 || off+int64(len(p)) > int64(len(r.data)) {
		return errors.New("out of range")
	}
	r.writes++
	if r.writes == r.failAt {
		return errors.New("injected media write failure")
	}
	if r.cutAfter != 0 && r.writes > r.cutAfter {
		return nil
	}
	copy(r.data[off:], p)
	return nil
}

func (r *memRegion) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.writes
}

func (r *memRegion) Size() int64      { return int64(len(r.data)) }
func (r *memRegion) Persistent() bool { return true }

func newManager(t *testing.T, slots int) (*Manager, *pmem.Pool, *memRegion) {
	t.Helper()
	r := &memRegion{data: make([]byte, 8<<20)}
	pool, err := pmem.Create(r, Layout)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(pool, slots)
	if err != nil {
		t.Fatal(err)
	}
	return m, pool, r
}

func pattern(n int, seed byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = seed + byte(i%251)
	}
	return out
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m, _, _ := newManager(t, 4)
	data := pattern(10_000, 1)
	if err := m.Save(1, 0, data); err != nil {
		t.Fatal(err)
	}
	got, err := m.Load(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("round trip mismatch")
	}
	ids, err := m.List()
	if err != nil || len(ids) != 1 || ids[0] != 1 {
		t.Errorf("List = %v, %v", ids, err)
	}
}

func TestIncrementalDedup(t *testing.T) {
	m, pool, _ := newManager(t, 4)
	data := pattern(16*ChunkSize, 2)
	if err := m.Save(1, 0, data); err != nil {
		t.Fatal(err)
	}
	allocsAfterFull := pool.Stats().Allocs.Load()
	// Change exactly one chunk and save incrementally.
	data2 := append([]byte(nil), data...)
	data2[5*ChunkSize+10] ^= 0xFF
	if err := m.Save(2, 1, data2); err != nil {
		t.Fatal(err)
	}
	if got := m.LastReused(); got != 15 {
		t.Errorf("reused %d chunks, want 15", got)
	}
	// Only two allocations: one new chunk + one descriptor.
	if delta := pool.Stats().Allocs.Load() - allocsAfterFull; delta != 2 {
		t.Errorf("incremental save allocated %d objects, want 2", delta)
	}
	// Both snapshots load correctly.
	g1, err := m.Load(1)
	if err != nil || !bytes.Equal(g1, data) {
		t.Error("base snapshot corrupted by incremental save")
	}
	g2, err := m.Load(2)
	if err != nil || !bytes.Equal(g2, data2) {
		t.Error("incremental snapshot wrong")
	}
}

func TestDeleteKeepsSharedChunks(t *testing.T) {
	m, _, _ := newManager(t, 4)
	data := pattern(8*ChunkSize, 3)
	if err := m.Save(1, 0, data); err != nil {
		t.Fatal(err)
	}
	data2 := append([]byte(nil), data...)
	data2[0] ^= 1
	if err := m.Save(2, 1, data2); err != nil {
		t.Fatal(err)
	}
	// Deleting the base must not break the incremental snapshot that
	// shares its chunks.
	if err := m.Delete(1); err != nil {
		t.Fatal(err)
	}
	got, err := m.Load(2)
	if err != nil || !bytes.Equal(got, data2) {
		t.Errorf("shared chunks freed under live snapshot: %v", err)
	}
	if err := m.Delete(2); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Load(2); err == nil {
		t.Error("deleted snapshot loads")
	}
	if err := m.Delete(2); err == nil {
		t.Error("double delete accepted")
	}
}

func TestSlotExhaustionAndValidation(t *testing.T) {
	m, _, _ := newManager(t, 2)
	if err := m.Save(1, 0, pattern(100, 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(2, 0, pattern(100, 2)); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(3, 0, pattern(100, 3)); err == nil {
		t.Error("save past slot capacity accepted")
	}
	if err := m.Save(1, 0, pattern(100, 1)); err == nil {
		t.Error("duplicate id accepted")
	}
	if err := m.Save(0, 0, pattern(100, 1)); err == nil {
		t.Error("id 0 accepted")
	}
	if err := m.Save(9, 0, nil); err == nil {
		t.Error("empty snapshot accepted")
	}
	if err := m.Save(9, 7, pattern(100, 1)); err == nil {
		t.Error("missing base accepted")
	}
	if _, err := m.Load(99); err == nil {
		t.Error("missing snapshot loads")
	}
	if m.Slots() != 2 {
		t.Error("Slots")
	}
}

func TestLatest(t *testing.T) {
	m, _, _ := newManager(t, 4)
	if _, _, err := m.Latest(); err == nil {
		t.Error("Latest on empty directory accepted")
	}
	_ = m.Save(3, 0, pattern(64, 3))
	_ = m.Save(7, 0, pattern(64, 7))
	_ = m.Save(5, 0, pattern(64, 5))
	id, data, err := m.Latest()
	if err != nil || id != 7 {
		t.Fatalf("Latest = %d, %v", id, err)
	}
	if !bytes.Equal(data, pattern(64, 7)) {
		t.Error("Latest data wrong")
	}
}

func TestSurvivesCrashAndReopen(t *testing.T) {
	m, pool, region := newManager(t, 4)
	data := pattern(3*ChunkSize+17, 9)
	if err := m.Save(1, 0, data); err != nil {
		t.Fatal(err)
	}
	pool.SimulateCrash()

	pool2, err := pmem.Open(region, Layout)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Open(pool2)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Slots() != 4 {
		t.Errorf("slots after reopen = %d", m2.Slots())
	}
	got, err := m2.Load(1)
	if err != nil || !bytes.Equal(got, data) {
		t.Errorf("snapshot lost across crash: %v", err)
	}
	// New + same slots also reattaches; different slot count refuses.
	if _, err := New(pool2, 4); err != nil {
		t.Errorf("New reattach: %v", err)
	}
	if _, err := New(pool2, 8); err == nil {
		t.Error("New with mismatched slots accepted")
	}
}

func TestOpenOnForeignPoolFails(t *testing.T) {
	r := &memRegion{data: make([]byte, 4<<20)}
	pool, err := pmem.Create(r, "other-layout")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(pool); err == nil {
		t.Error("Open on pool without directory accepted")
	}
	if _, err := New(pool, 0); err == nil {
		t.Error("zero slots accepted")
	}
	if _, err := New(pool, MaxSlots+1); err == nil {
		t.Error("oversized slots accepted")
	}
}

func TestCorruptChunkDetected(t *testing.T) {
	m, pool, _ := newManager(t, 4)
	data := pattern(2*ChunkSize, 4)
	if err := m.Save(1, 0, data); err != nil {
		t.Fatal(err)
	}
	// Corrupt a chunk in place through the descriptor.
	refs, _, err := m.loadDescriptor(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := pool.View(pmem.OID{PoolID: pool.PoolID(), Off: refs[0].off}, 8)
	if err != nil {
		t.Fatal(err)
	}
	v[0] ^= 0xFF
	if _, err := m.Load(1); err == nil {
		t.Error("corrupt chunk passed CRC")
	}
}

// occupancy is what a leak would change: the live bytes and the
// allocated blocks of the pool's heap.
func occupancy(t *testing.T, pool *pmem.Pool) (uint64, int) {
	t.Helper()
	live, err := pool.LiveBytes()
	if err != nil {
		t.Fatal(err)
	}
	r, err := pool.Check()
	if err != nil {
		t.Fatal(err)
	}
	return live, r.AllocatedBlocks
}

// TestFailedSaveLeaksNothing: a Save that fails before publishing,
// whether out of space or on a media write error, frees every chunk and
// descriptor it allocated, so the pool's occupancy returns to its
// pre-Save value and the space stays usable.
func TestFailedSaveLeaksNothing(t *testing.T) {
	const poolSize = 2 << 20
	fresh := func(t *testing.T) (*Manager, *pmem.Pool, *memRegion) {
		r := &memRegion{data: make([]byte, poolSize)}
		pool, err := pmem.Create(r, Layout)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(pool, 4)
		if err != nil {
			t.Fatal(err)
		}
		return m, pool, r
	}
	// chunksThatFit is the largest whole-chunk state whose chunks all
	// fit in the heap's free space, leaving too little for its
	// descriptor.
	chunksThatFit := func(t *testing.T, pool *pmem.Pool) int {
		r, err := pool.Check()
		if err != nil {
			t.Fatal(err)
		}
		return int(r.FreeBytes / (ChunkSize + 64)) // 64: block header
	}
	// Each case prepares a pool for a failing Save and returns that
	// Save's data and base snapshot.
	cases := []struct {
		name string
		arm  func(t *testing.T, m *Manager, pool *pmem.Pool, r *memRegion) (data []byte, prev uint64)
	}{
		{"out of space for chunks", func(t *testing.T, m *Manager, pool *pmem.Pool, r *memRegion) ([]byte, uint64) {
			return pattern(poolSize, 1), 0
		}},
		{"out of space for the descriptor", func(t *testing.T, m *Manager, pool *pmem.Pool, r *memRegion) ([]byte, uint64) {
			return pattern(chunksThatFit(t, pool)*ChunkSize, 2), 0
		}},
		{"media write error", func(t *testing.T, m *Manager, pool *pmem.Pool, r *memRegion) ([]byte, uint64) {
			r.failAt = r.count() + 8 // inside the third chunk's allocation
			return pattern(16*ChunkSize, 3), 0
		}},
		{"media write error in a deduplicating save", func(t *testing.T, m *Manager, pool *pmem.Pool, r *memRegion) ([]byte, uint64) {
			base := pattern(16*ChunkSize, 4)
			if err := m.Save(9, 0, base); err != nil {
				t.Fatal(err)
			}
			next := append([]byte(nil), base...)
			for c := 0; c < 16; c += 3 {
				next[c*ChunkSize] ^= 0xFF
			}
			r.failAt = r.count() + 5 // inside the second new chunk's allocation
			return next, 9
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, pool, r := fresh(t)
			data, prev := tc.arm(t, m, pool, r)
			ids, err := m.List()
			if err != nil {
				t.Fatal(err)
			}
			live, blocks := occupancy(t, pool)
			if err := m.Save(1, prev, data); err == nil {
				t.Fatal("Save succeeded; the case did not make it fail")
			}
			r.failAt = 0
			if gotLive, gotBlocks := occupancy(t, pool); gotLive != live || gotBlocks != blocks {
				t.Errorf("failed Save left %d live bytes in %d blocks, want %d in %d", gotLive, gotBlocks, live, blocks)
			}
			if got, err := m.List(); err != nil || len(got) != len(ids) {
				t.Errorf("failed Save changed the directory: %v -> %v, %v", ids, got, err)
			}
			small := pattern(8*ChunkSize, 5)
			if err := m.Save(2, 0, small); err != nil {
				t.Fatalf("Save after a failed Save: %v", err)
			}
			if got, err := m.Load(2); err != nil || !bytes.Equal(got, small) {
				t.Errorf("Load after a failed Save: %v", err)
			}
		})
	}
}

// TestSaveDeleteCrashAtEveryWrite cuts power after every region write
// of one deduplicating Save and the Delete that follows it. After
// reopen, the snapshots before the cut load byte-exact, the cut Save is
// all or nothing, the deleted snapshot is either whole or gone, and the
// heap walks clean.
func TestSaveDeleteCrashAtEveryWrite(t *testing.T) {
	const chunks = 16
	s1 := pattern(chunks*ChunkSize, 1)
	s2 := append([]byte(nil), s1...)
	s2[3*ChunkSize] ^= 0xFF
	s3 := append([]byte(nil), s2...)
	s3[5*ChunkSize+100] ^= 0xFF
	s3[11*ChunkSize+7] ^= 0xFF
	s3 = append(s3, pattern(700, 3)...) // a partial last chunk

	setup := func() (*Manager, *pmem.Pool, *memRegion) {
		m, pool, r := newManager(t, 4)
		if err := m.Save(1, 0, s1); err != nil {
			t.Fatal(err)
		}
		if err := m.Save(2, 1, s2); err != nil {
			t.Fatal(err)
		}
		return m, pool, r
	}
	step := func(m *Manager) {
		// Past the cut, writes vanish but calls still return; the
		// step's errors are beside the point.
		_ = m.Save(3, 2, s3)
		_ = m.Delete(1)
	}
	m, _, r := setup()
	w0 := r.count()
	step(m)
	total := r.count() - w0
	if total < 10 {
		t.Fatalf("step made only %d region writes", total)
	}
	for cut := 0; cut <= total; cut++ {
		m, pool, r := setup()
		r.cutAfter = r.count() + cut
		step(m)
		pool.SimulateCrash()
		r.cutAfter = 0

		pool2, err := pmem.Open(r, Layout)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		m2, err := Open(pool2)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got, err := m2.Load(2); err != nil || !bytes.Equal(got, s2) {
			t.Fatalf("cut %d: snapshot 2 lost or changed: %v", cut, err)
		}
		ids, err := m2.List()
		if err != nil {
			t.Fatal(err)
		}
		has := map[uint64]bool{}
		for _, id := range ids {
			has[id] = true
		}
		if has[1] {
			if got, err := m2.Load(1); err != nil || !bytes.Equal(got, s1) {
				t.Fatalf("cut %d: snapshot 1 half deleted: %v", cut, err)
			}
		}
		if has[3] {
			if got, err := m2.Load(3); err != nil || !bytes.Equal(got, s3) {
				t.Fatalf("cut %d: snapshot 3 published torn: %v", cut, err)
			}
		}
		if cut == 0 && (has[3] || !has[1]) {
			t.Fatalf("cut 0 (every write lost): snapshots %v, want 1 and 2", ids)
		}
		if cut == total && (!has[3] || has[1]) {
			t.Fatalf("cut %d (no write lost): snapshots %v, want 2 and 3", cut, ids)
		}
		if rep, err := pool2.Check(); err != nil || rep.Corrupt {
			t.Fatalf("cut %d: heap check: %+v, %v", cut, rep, err)
		}
	}
}

// TestCorruptDescriptorCountRejected: a descriptor whose chunk count
// disagrees with its slot's size is refused before any write, whether
// the count wraps the descriptor's byte length (2^60 entries of 16
// bytes is 0 bytes) or merely overstates it.
func TestCorruptDescriptorCountRejected(t *testing.T) {
	for _, tc := range []struct {
		name  string
		count uint64
	}{{"count 2^60", 1 << 60}, {"count 5", 5}} {
		t.Run(tc.name, func(t *testing.T) {
			m, pool, _ := newManager(t, 4)
			data := pattern(2*ChunkSize, 1)
			if err := m.Save(1, 0, data); err != nil {
				t.Fatal(err)
			}
			if err := m.Save(2, 0, pattern(ChunkSize, 2)); err != nil {
				t.Fatal(err)
			}
			_, descOff, _, err := m.findSlot(1)
			if err != nil {
				t.Fatal(err)
			}
			nb, err := pool.View(pmem.OID{PoolID: pool.PoolID(), Off: descOff}, descHeader)
			if err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint64(nb, tc.count)
			live, blocks := occupancy(t, pool)

			if _, err := m.Load(1); err == nil {
				t.Error("Load accepted the corrupt descriptor")
			}
			if err := m.Save(3, 1, data); err == nil {
				t.Error("Save accepted the corrupt descriptor as its base")
			}
			if err := m.Delete(1); err == nil {
				t.Error("Delete accepted the corrupt descriptor")
			}
			if ids, err := m.List(); err != nil || len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
				t.Errorf("List = %v, %v; want [1 2]", ids, err)
			}
			if gotLive, gotBlocks := occupancy(t, pool); gotLive != live || gotBlocks != blocks {
				t.Errorf("refused calls left %d live bytes in %d blocks, want %d in %d", gotLive, gotBlocks, live, blocks)
			}
			// Nothing was written: with the count restored, the snapshot
			// loads byte-exact.
			binary.LittleEndian.PutUint64(nb, 2)
			if got, err := m.Load(1); err != nil || !bytes.Equal(got, data) {
				t.Errorf("Load after restoring the count: %v", err)
			}
		})
	}
}

// TestReuseNeedsEqualLength: Save reuses a base chunk only when its
// bytes and its length both match, and only against the base's bytes
// as they are now.
func TestReuseNeedsEqualLength(t *testing.T) {
	m, pool, _ := newManager(t, 4)
	base := pattern(2*ChunkSize+2048, 6)
	if err := m.Save(1, 0, base); err != nil {
		t.Fatal(err)
	}
	refs, _, err := m.loadDescriptor(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The 4096 bytes the view holds at the base's short third chunk:
	// its 2048 bytes, then the next block's.
	tail, err := pool.View(pmem.OID{PoolID: pool.PoolID(), Off: refs[2].off}, ChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	next := append(append([]byte(nil), base[:2*ChunkSize]...), tail...)
	if err := m.Save(2, 1, next); err != nil {
		t.Fatal(err)
	}
	if got := m.LastReused(); got != 2 {
		t.Errorf("reused %d chunks, want 2 (the short base chunk must not match)", got)
	}
	if got, err := m.Load(2); err != nil || !bytes.Equal(got, next) {
		t.Errorf("Load(2): %v", err)
	}

	// A base chunk changed in the view no longer matches the bytes it
	// was saved from, so saving those bytes writes a fresh chunk.
	v, err := pool.View(pmem.OID{PoolID: pool.PoolID(), Off: refs[0].off}, 1)
	if err != nil {
		t.Fatal(err)
	}
	v[0] ^= 0xFF
	if err := m.Save(3, 1, base); err != nil {
		t.Fatal(err)
	}
	if got := m.LastReused(); got != 2 {
		t.Errorf("reused %d chunks, want 2 (the changed base chunk must not match)", got)
	}
	if got, err := m.Load(3); err != nil || !bytes.Equal(got, base) {
		t.Errorf("Load(3): %v", err)
	}
}

// TestDeleteFreesExactlyItsOwnChunks deletes the middle of a chain:
// s2's chunk 3 is held by s2 alone, its chunk 5 also by s3, and the
// rest also by s1 and s3. Only chunk 3 and s2's descriptor are freed.
func TestDeleteFreesExactlyItsOwnChunks(t *testing.T) {
	m, pool, _ := newManager(t, 8)
	s1 := pattern(8*ChunkSize, 1)
	s2 := append([]byte(nil), s1...)
	s2[3*ChunkSize] ^= 0xFF
	s2[5*ChunkSize] ^= 0xFF
	s3 := append([]byte(nil), s2...)
	s3[3*ChunkSize+1] ^= 0xFF
	s3 = append(s3, pattern(700, 3)...) // a partial ninth chunk
	s4 := pattern(8*ChunkSize, 4)
	for _, s := range []struct {
		id, prev uint64
		data     []byte
		reused   int
	}{{1, 0, s1, 0}, {2, 1, s2, 6}, {3, 2, s3, 7}, {4, 0, s4, 0}} {
		if err := m.Save(s.id, s.prev, s.data); err != nil {
			t.Fatal(err)
		}
		if got := m.LastReused(); got != s.reused {
			t.Fatalf("Save(%d, %d) reused %d chunks, want %d", s.id, s.prev, got, s.reused)
		}
	}
	_, blocks := occupancy(t, pool)
	if err := m.Delete(2); err != nil {
		t.Fatal(err)
	}
	if _, after := occupancy(t, pool); blocks-after != 2 {
		t.Errorf("Delete(2) freed %d blocks, want 2 (its own chunk and its descriptor)", blocks-after)
	}
	for id, want := range map[uint64][]byte{1: s1, 3: s3, 4: s4} {
		if got, err := m.Load(id); err != nil || !bytes.Equal(got, want) {
			t.Errorf("Load(%d) after Delete(2): %v", id, err)
		}
	}
}

// TestStepAllocsIndependentOfChunkCount: a steady-state checkpoint step
// (dirty a tenth of the chunks, Save against the latest snapshot,
// Delete the one four back) makes no Go allocation, whatever the
// snapshot's chunk count.
func TestStepAllocsIndependentOfChunkCount(t *testing.T) {
	var got []float64
	for _, chunks := range []int{16, 64, 256} {
		m, _, _ := newManager(t, 8)
		state := pattern(chunks*ChunkSize, 1)
		id := uint64(1)
		if err := m.Save(id, 0, state); err != nil {
			t.Fatal(err)
		}
		step := func() {
			for c := 0; c < chunks; c += 10 {
				state[(c+int(id))%chunks*ChunkSize] ^= 0xFF
			}
			id++
			if err := m.Save(id, id-1, state); err != nil {
				t.Fatal(err)
			}
			if id > 4 {
				if err := m.Delete(id - 4); err != nil {
					t.Fatal(err)
				}
			}
		}
		for id < 8 { // four live snapshots, every buffer grown
			step()
		}
		got = append(got, testing.AllocsPerRun(20, step))
	}
	if got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Errorf("allocs per step at 16, 64, 256 chunks = %v, want 0", got)
	}
}
