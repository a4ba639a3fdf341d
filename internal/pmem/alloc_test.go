package pmem

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestAllocAlignmentAndZeroing(t *testing.T) {
	p, _ := createPool(t)
	for _, n := range []uint64{1, 7, 64, 100, 4096} {
		oid, err := p.Alloc(n)
		if err != nil {
			t.Fatalf("Alloc(%d): %v", n, err)
		}
		if oid.Off%64 != 0 {
			t.Errorf("Alloc(%d) offset %#x not 64-byte aligned", n, oid.Off)
		}
		v, err := p.View(oid, n)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range v {
			if b != 0 {
				t.Fatalf("Alloc(%d) byte %d = %#x, want 0", n, i, b)
			}
		}
	}
}

// TestAllocFromReadsBackAfterReopen: a constructed object holds a copy
// of src followed by zeroed slack to the end of its 64-byte block, on
// media, even where the block held other bytes before.
func TestAllocFromReadsBackAfterReopen(t *testing.T) {
	p, r := createPool(t)
	old, err := p.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := p.View(old, 256)
	for i := range v {
		v[i] = 0xEE
	}
	if err := p.Persist(old, 256); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(old); err != nil {
		t.Fatal(err)
	}
	src := make([]byte, 100)
	for i := range src {
		src[i] = byte(i + 1)
	}
	want := append(append([]byte(nil), src...), make([]byte, 28)...)
	oid, err := p.AllocFrom(src)
	if err != nil {
		t.Fatal(err)
	}
	if oid.Off != old.Off {
		t.Fatalf("AllocFrom at %#x, want the dirty freed block at %#x", oid.Off, old.Off)
	}
	src[0] ^= 0xFF // the object holds a copy
	for _, empty := range [][]byte{nil, {}} {
		if _, err := p.AllocFrom(empty); err == nil {
			t.Errorf("AllocFrom(%#v) accepted", empty)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := Open(r, "stream-arrays")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := p2.AllocSize(oid); err != nil || n != 100 {
		t.Errorf("AllocSize = %d, %v; want 100", n, err)
	}
	got, err := p2.View(oid, uint64(len(want)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("after reopen the object reads %x, want %x", got, want)
	}
}

// TestAllocFromWritesOnce: constructing an object takes one region
// write fewer than Alloc, a copy and Persist, and half the data bytes,
// because its bytes are not zeroed on media first.
func TestAllocFromWritesOnce(t *testing.T) {
	const n = 4096
	src := make([]byte, n)
	for i := range src {
		src[i] = byte(i)
	}
	// Both ways write the same two block headers, the split-off
	// tail's and the object's; the rest is the object's data.
	const headerBytes = 2 * blockHeaderSize
	measure := func(alloc func(p *Pool) error) (writes int, data int64) {
		p, r := createPool(t)
		w0, b0 := r.writes, p.Stats().PersistBytes.Load()
		if err := alloc(p); err != nil {
			t.Fatal(err)
		}
		return r.writes - w0, p.Stats().PersistBytes.Load() - b0 - headerBytes
	}
	wTwice, dTwice := measure(func(p *Pool) error {
		oid, err := p.Alloc(n)
		if err != nil {
			return err
		}
		v, err := p.View(oid, n)
		if err != nil {
			return err
		}
		copy(v, src)
		return p.Persist(oid, n)
	})
	wOnce, dOnce := measure(func(p *Pool) error {
		_, err := p.AllocFrom(src)
		return err
	})
	if wOnce != wTwice-1 {
		t.Errorf("AllocFrom made %d region writes, Alloc+Persist %d; want one fewer", wOnce, wTwice)
	}
	if dOnce != n || dTwice != 2*n {
		t.Errorf("data bytes: AllocFrom %d, Alloc+Persist %d; want %d and %d", dOnce, dTwice, n, 2*n)
	}
}

// TestAllocIOErrorLeaksNothing: an allocation whose media write fails
// gives its block back whole, so the heap is as before, the same
// allocation then lands in the same place, and the pool reopens clean.
// A successful allocation makes two writes when it splits its block
// (the tail's header, then the block's header and bytes in one flush)
// and one when it exactly fills a hole; each of them fails in turn.
func TestAllocIOErrorLeaksNothing(t *testing.T) {
	// setup returns a pool whose first free block either has room to
	// spare (split) or is a hole a 1000-byte object fills exactly, and
	// the number of live blocks.
	setup := func(exact bool) (*Pool, *memRegion, int) {
		r := newMemRegion(testPoolSize, true)
		p, err := Create(r, "stream-arrays")
		if err != nil {
			t.Fatal(err)
		}
		if !exact {
			return p, r, 0
		}
		hole, err := p.Alloc(1000)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Alloc(1000); err != nil {
			t.Fatal(err)
		}
		if err := p.Free(hole); err != nil {
			t.Fatal(err)
		}
		return p, r, 1
	}
	for _, name := range []string{"Alloc", "AllocFrom"} {
		alloc := func(p *Pool) (OID, error) {
			if name == "Alloc" {
				return p.Alloc(1000)
			}
			return p.AllocFrom(make([]byte, 1000))
		}
		for _, exact := range []bool{false, true} {
			p, r, _ := setup(exact)
			w := r.writes
			if _, err := alloc(p); err != nil {
				t.Fatal(err)
			}
			writes, want := r.writes-w, 2
			if exact {
				want = 1
			}
			if writes != want {
				t.Errorf("%s, exact fit %v: %d media writes, want %d", name, exact, writes, want)
			}
			for k := 1; k <= writes; k++ {
				p, r, live := setup(exact)
				before, err := p.Check()
				if err != nil {
					t.Fatal(err)
				}
				r.failAt = r.writes + k
				if _, err := alloc(p); err == nil {
					t.Fatalf("%s, exact fit %v, with write %d failing succeeded", name, exact, k)
				}
				after, err := p.Check()
				if err != nil || after != before {
					t.Errorf("%s, exact fit %v, write %d failed: heap %+v, %v; want %+v", name, exact, k, after, err, before)
				}
				oid, err := alloc(p)
				if err != nil {
					t.Fatalf("%s after a failed one: %v", name, err)
				}
				if want := p.heapOff + blockHeaderSize; oid.Off != want {
					t.Errorf("%s after a failed one landed at %#x, want %#x", name, oid.Off, want)
				}
				if err := p.Close(); err != nil {
					t.Fatal(err)
				}
				p2, err := Open(r, "stream-arrays")
				if err != nil {
					t.Fatal(err)
				}
				if rep, err := p2.Check(); err != nil || rep.AllocatedBlocks != live+1 {
					t.Errorf("%s, exact fit %v, write %d failed: after reopen heap %+v, %v; want %d live blocks",
						name, exact, k, rep, err, live+1)
				}
			}
		}
	}
}

// refFit is first fit computed from the view alone: the data offset
// and size of the lowest-offset free block with room for n bytes,
// found by walking the block headers.
func refFit(p *Pool, n uint64) (dataOff, size uint64, ok bool) {
	need := alignUp64(n, 64) + blockHeaderSize
	for off := p.heapOff; off < uint64(p.size); off += size {
		var flags uint64
		_, size, flags, _ = p.heap.readHeader(off)
		if flags&flagAllocated == 0 && size >= need {
			return off + blockHeaderSize, size, true
		}
	}
	return 0, 0, false
}

// TestAllocFirstFitMatchesHeaderWalk: over a seeded run of allocs and
// frees of checkpoint-sized objects (4 KiB chunks, 4104-byte
// descriptors) and small ones, with an occasional failed write so the
// allocation is undone, every allocation lands where first fit over
// the block headers says, before and after the pool is reopened and
// its free list rebuilt.
func TestAllocFirstFitMatchesHeaderWalk(t *testing.T) {
	sizes := []uint64{4096, 4096, 4104, 4104, 24, 100, 700} // checkpoint sizes drawn twice as often
	rng := rand.New(rand.NewSource(26))
	r := newMemRegion(1<<20, true)
	p, err := Create(r, "first-fit")
	if err != nil {
		t.Fatal(err)
	}
	var live []OID
	failed := 0
	for round := 0; round < 3; round++ {
		for step := 0; step < 400; step++ {
			if len(live) > 0 && rng.Intn(5) < 2 {
				i := rng.Intn(len(live))
				if err := p.Free(live[i]); err != nil {
					t.Fatal(err)
				}
				live = append(live[:i], live[i+1:]...)
				continue
			}
			n := sizes[rng.Intn(len(sizes))]
			want, size, ok := refFit(p, n)
			if !ok {
				if _, err := p.Alloc(n); err == nil {
					t.Fatalf("round %d step %d: Alloc(%d) succeeded where no free block has room", round, step, n)
				}
				continue
			}
			if rng.Intn(6) == 0 {
				// Fail one of the allocation's writes: the tail's
				// header or the block's flush when it splits.
				writes := 1
				if size-(alignUp64(n, 64)+blockHeaderSize) >= minSplit {
					writes = 2
				}
				r.failAt = r.writes + 1 + rng.Intn(writes)
				if _, err := p.Alloc(n); err == nil {
					t.Fatalf("round %d step %d: Alloc(%d) with a failing write succeeded", round, step, n)
				}
				r.failAt = 0
				failed++
			}
			oid, err := p.AllocFrom(bytes.Repeat([]byte{byte(step)}, int(n)))
			if err != nil {
				t.Fatalf("round %d step %d: AllocFrom(%d): %v", round, step, n, err)
			}
			if oid.Off != want {
				t.Fatalf("round %d step %d: %d bytes landed at %#x, first fit over the headers is %#x", round, step, n, oid.Off, want)
			}
			live = append(live, oid)
		}
		rep, err := p.Check()
		if err != nil || rep.AllocatedBlocks != len(live) {
			t.Fatalf("round %d: heap %+v, %v; want %d live blocks", round, rep, err, len(live))
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if p, err = Open(r, "first-fit"); err != nil {
			t.Fatal(err)
		}
	}
	if failed == 0 {
		t.Fatal("no allocation failed; the undo path went untested")
	}
}

// TestAllocTornFlush: a crash that keeps only some 64-byte lines of an
// allocation's one header-and-bytes flush — any prefix of them, or the
// lines of one 4-way interleave leg alone (every fourth 256-byte
// granule) — reopens to a well-formed heap in which every earlier
// object reads as it did and the new block is allocated exactly when
// its header line landed. Both a split and an exact fit are torn.
func TestAllocTornFlush(t *testing.T) {
	const n = 1000 // a 1088-byte block: 17 lines over five granules
	src := bytes.Repeat([]byte{0xAB}, n)
	// setup allocates three objects; for an exact fit it frees the
	// first, which leaves a hole an n-byte object fills.
	setup := func(exact bool) (*Pool, *memRegion, map[OID][]byte) {
		r := newMemRegion(testPoolSize, true)
		p, err := Create(r, "torn")
		if err != nil {
			t.Fatal(err)
		}
		objs := make(map[OID][]byte)
		var first OID
		for i := range 3 {
			b := bytes.Repeat([]byte{byte(i + 1)}, n)
			oid, err := p.AllocFrom(b)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = oid
			}
			objs[oid] = b
		}
		if exact {
			if err := p.Free(first); err != nil {
				t.Fatal(err)
			}
			delete(objs, first)
		}
		return p, r, objs
	}
	type tear struct {
		name string
		keep func(line int64) bool
	}
	for _, exact := range []bool{false, true} {
		// Control run: the flush is the allocation's last write.
		p, r, _ := setup(exact)
		oid, err := p.AllocFrom(src)
		if err != nil {
			t.Fatal(err)
		}
		flush, blk := r.writes, int64(oid.Off-blockHeaderSize)
		var tears []tear
		for k := int64(0); k <= (blockHeaderSize+n+63)/64; k++ {
			tears = append(tears, tear{fmt.Sprintf("prefix %d lines", k), func(line int64) bool { return line < blk+64*k }})
		}
		for leg := int64(0); leg < 4; leg++ {
			tears = append(tears, tear{fmt.Sprintf("leg %d", leg), func(line int64) bool { return line/256%4 == leg }})
		}
		for _, tr := range tears {
			p, r, objs := setup(exact)
			before, err := p.Check()
			if err != nil {
				t.Fatal(err)
			}
			r.cutoff, r.keep = flush-1, tr.keep
			_, _ = p.AllocFrom(src) // the cut drops writes silently; recovery shows the damage
			r.cutoff, r.keep = -1, nil
			p.SimulateCrash()
			p2, err := Open(r, "torn")
			if err != nil {
				t.Fatalf("exact fit %v, %s: reopen: %v", exact, tr.name, err)
			}
			rep, err := p2.Check()
			if err != nil {
				t.Fatalf("exact fit %v, %s: check: %v", exact, tr.name, err)
			}
			want := before.AllocatedBlocks
			if tr.keep(blk) {
				want++ // the header line landed: allocated, never published
			}
			if rep.AllocatedBlocks != want {
				t.Errorf("exact fit %v, %s: %d blocks allocated, want %d", exact, tr.name, rep.AllocatedBlocks, want)
			}
			for oid, b := range objs {
				if got, err := p2.View(oid, n); err != nil || !bytes.Equal(got, b) {
					t.Errorf("exact fit %v, %s: object at %#x changed", exact, tr.name, oid.Off)
				}
			}
		}
	}
}

func TestAllocSizeTracking(t *testing.T) {
	p, _ := createPool(t)
	oid, err := p.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	n, err := p.AllocSize(oid)
	if err != nil || n != 100 {
		t.Errorf("AllocSize = %d, %v; want 100", n, err)
	}
	if err := p.Free(oid); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AllocSize(oid); err == nil {
		t.Error("AllocSize of freed object accepted")
	}
}

func TestAllocDistinctNonOverlapping(t *testing.T) {
	p, _ := createPool(t)
	type ext struct{ lo, hi uint64 }
	var exts []ext
	for i := 0; i < 50; i++ {
		n := uint64(i*13%257 + 1)
		oid, err := p.Alloc(n)
		if err != nil {
			t.Fatal(err)
		}
		exts = append(exts, ext{oid.Off, oid.Off + n})
	}
	for i := range exts {
		for j := i + 1; j < len(exts); j++ {
			a, b := exts[i], exts[j]
			if a.lo < b.hi && b.lo < a.hi {
				t.Fatalf("allocations overlap: [%#x,%#x) and [%#x,%#x)", a.lo, a.hi, b.lo, b.hi)
			}
		}
	}
}

func TestFreeAndReuse(t *testing.T) {
	p, _ := createPool(t)
	oid, err := p.Alloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Free(oid); err != nil {
		t.Fatal(err)
	}
	// Double free rejected (checked before the block is reused).
	if err := p.Free(oid); err == nil {
		t.Error("double free accepted")
	}
	// Freed space is reusable.
	oid2, err := p.Alloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	if oid2.Off != oid.Off {
		t.Errorf("first-fit should reuse the freed block: got %#x, had %#x", oid2.Off, oid.Off)
	}
	// Free of a non-block offset rejected.
	if err := p.Free(OID{PoolID: p.PoolID(), Off: oid.Off + 64}); err == nil {
		t.Error("free of interior pointer accepted")
	}
}

func TestForwardCoalescing(t *testing.T) {
	p, _ := createPool(t)
	a, _ := p.Alloc(1024)
	b, _ := p.Alloc(1024)
	// Freeing b then a merges a with b's block, so a 2KiB allocation
	// fits where the two 1KiB ones were.
	if err := p.Free(b); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(a); err != nil {
		t.Fatal(err)
	}
	big, err := p.Alloc(2048)
	if err != nil {
		t.Fatal(err)
	}
	if big.Off != a.Off {
		t.Errorf("coalesced block not reused: got %#x, want %#x", big.Off, a.Off)
	}
}

// chainFreeList is the free list the view's block chain shows: each run
// of adjacent free blocks as one entry.
func chainFreeList(t *testing.T, p *Pool) []freeBlock {
	t.Helper()
	var list []freeBlock
	err := p.heap.walk("test", func(off, size, flags, _ uint64) {
		switch n := len(list); {
		case flags&flagAllocated != 0:
		case n > 0 && list[n-1].off+list[n-1].size == off:
			list[n-1].size += size
		default:
			list = append(list, freeBlock{off, size})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return list
}

// TestBackwardCoalescing: a block freed after its predecessor merges
// with it, so four 4 KiB objects freed in ascending order leave one free
// block with the heap's tail, and an 8 KiB allocation lands where the
// first of them was. A merged block's header names no block, so a
// second Free or an AllocSize of its OID fails.
func TestBackwardCoalescing(t *testing.T) {
	p, _ := createPool(t)
	var oids []OID
	for i := 0; i < 4; i++ {
		oid, err := p.Alloc(4096)
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	for _, oid := range oids {
		if err := p.Free(oid); err != nil {
			t.Fatal(err)
		}
	}
	if rep, err := p.Check(); err != nil || rep.FreeBlocks != 1 || rep.AllocatedBlocks != 0 {
		t.Errorf("after freeing in ascending order: heap %+v, %v; want one free block", rep, err)
	}
	for _, oid := range oids[1:] {
		if err := p.Free(oid); err == nil {
			t.Errorf("second Free of merged %v accepted", oid)
		}
		if n, err := p.AllocSize(oid); err == nil {
			t.Errorf("AllocSize of merged %v = %d, want an error", oid, n)
		}
	}
	big, err := p.Alloc(8192)
	if err != nil {
		t.Fatal(err)
	}
	if big.Off != oids[0].Off {
		t.Errorf("8 KiB allocation landed at %#x, want the first freed block at %#x", big.Off, oids[0].Off)
	}
}

// TestOpenMergesAdjacentFreeBlocks: a pool written before free merged
// backwards can hold two adjacent free blocks; Open lists them as one
// entry, and an allocation spanning both lands at the first.
func TestOpenMergesAdjacentFreeBlocks(t *testing.T) {
	p, r := createPool(t)
	var offs []uint64
	for i := 0; i < 3; i++ { // the third keeps the heap's tail apart
		oid, err := p.Alloc(1024)
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, oid.Off-blockHeaderSize)
	}
	var total uint64
	for _, off := range offs[:2] {
		_, size, _, _ := p.heap.readHeader(off)
		p.heap.writeHeader(off, size, 0, 0)
		if err := p.persistRaw(int64(off), blockHeaderSize); err != nil {
			t.Fatal(err)
		}
		total += size
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := Open(r, "stream-arrays")
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.heap.freeList[0]; got != (freeBlock{offs[0], total}) {
		t.Errorf("first free-list entry %+v, want the two free blocks as {%#x %d}", got, offs[0], total)
	}
	oid, err := p2.Alloc(total - blockHeaderSize)
	if err != nil {
		t.Fatal(err)
	}
	if oid.Off != offs[0]+blockHeaderSize {
		t.Errorf("allocation spanning both blocks landed at %#x, want %#x", oid.Off, offs[0]+blockHeaderSize)
	}
}

// TestFreeIOErrorLeavesHeapAsItWas: a free whose header write fails
// leaves the view and the free list as they were, whether it would have
// merged with its predecessor, its successor or neither, and a retry
// then frees and merges the block.
func TestFreeIOErrorLeavesHeapAsItWas(t *testing.T) {
	for _, free := range [][]int{{1}, {0, 1}, {2, 1}, {0, 2, 1}} {
		p, r := createPool(t)
		var oids []OID
		for i := 0; i < 4; i++ { // the fourth keeps the heap's tail apart
			oid, err := p.Alloc(1024)
			if err != nil {
				t.Fatal(err)
			}
			oids = append(oids, oid)
		}
		last := oids[free[len(free)-1]]
		for _, i := range free[:len(free)-1] {
			if err := p.Free(oids[i]); err != nil {
				t.Fatal(err)
			}
		}
		before, err := p.Check()
		if err != nil {
			t.Fatal(err)
		}
		list := slices.Clone(p.heap.freeList)
		r.failAt = r.writes + 1
		if err := p.Free(last); err == nil {
			t.Fatalf("frees %v: Free with its write failing succeeded", free)
		}
		if after, err := p.Check(); err != nil || after != before || !slices.Equal(p.heap.freeList, list) {
			t.Errorf("frees %v, write failed: heap %+v, %v, list %v; want %+v, list %v", free, after, err, p.heap.freeList, before, list)
		}
		if err := p.Free(last); err != nil {
			t.Fatalf("frees %v: retried Free: %v", free, err)
		}
		if chain := chainFreeList(t, p); !slices.Equal(p.heap.freeList, chain) {
			t.Errorf("frees %v: free list %v after the retry, the chain shows %v", free, p.heap.freeList, chain)
		}
	}
}

func TestOutOfSpace(t *testing.T) {
	p, _ := createPool(t)
	if _, err := p.Alloc(uint64(testPoolSize)); err == nil {
		t.Error("oversized alloc accepted")
	}
	// Fill the heap with big chunks until exhaustion, then verify the
	// error and that a small allocation still works after freeing.
	var last OID
	for {
		oid, err := p.Alloc(512 << 10)
		if err != nil {
			break
		}
		last = oid
	}
	if _, err := p.Alloc(512 << 10); err == nil {
		t.Error("alloc after exhaustion succeeded")
	}
	if err := p.Free(last); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(1024); err != nil {
		t.Errorf("alloc after free failed: %v", err)
	}
	if _, err := p.Alloc(0); err == nil {
		t.Error("zero-size alloc accepted")
	}
}

func TestHeapSurvivesReopen(t *testing.T) {
	p, r := createPool(t)
	var oids []OID
	for i := 0; i < 10; i++ {
		oid, err := p.Alloc(256)
		if err != nil {
			t.Fatal(err)
		}
		v, _ := p.View(oid, 256)
		v[0] = byte(i + 1)
		if err := p.Persist(oid, 256); err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	if err := p.Free(oids[3]); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := Open(r, "stream-arrays")
	if err != nil {
		t.Fatal(err)
	}
	// Live objects keep their data.
	for i, oid := range oids {
		if i == 3 {
			continue
		}
		v, err := p2.View(oid, 256)
		if err != nil {
			t.Fatal(err)
		}
		if v[0] != byte(i+1) {
			t.Errorf("object %d byte = %d, want %d", i, v[0], i+1)
		}
	}
	// The freed slot is free again after rebuild: allocating reuses it.
	oid, err := p2.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	if oid.Off != oids[3].Off {
		t.Errorf("rebuilt free list did not expose the freed block: got %#x, want %#x", oid.Off, oids[3].Off)
	}
}

func TestCheckReport(t *testing.T) {
	p, _ := createPool(t)
	r0, err := p.Check()
	if err != nil {
		t.Fatal(err)
	}
	if r0.AllocatedBlocks != 0 || r0.FreeBlocks != 1 {
		t.Errorf("fresh pool check = %+v", r0)
	}
	a, _ := p.Alloc(128)
	_, _ = p.Alloc(128)
	if err := p.Free(a); err != nil {
		t.Fatal(err)
	}
	r1, err := p.Check()
	if err != nil {
		t.Fatal(err)
	}
	if r1.AllocatedBlocks != 1 {
		t.Errorf("allocated blocks = %d, want 1", r1.AllocatedBlocks)
	}
	if r1.FreeBytes == 0 || r1.Blocks < 3 {
		t.Errorf("check = %+v", r1)
	}
	// Corruption is detected.
	p.view[p.heapOff] = 0xFF
	if _, err := p.Check(); err == nil {
		t.Error("corrupt heap passed check")
	}
}

// Property: any interleaving of allocs and frees leaves the heap walk
// consistent (Check passes) and live objects' extents disjoint.
func TestHeapConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, _ := createPoolQuick()
		type obj struct {
			oid OID
			n   uint64
		}
		var live []obj
		for step := 0; step < 120; step++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				if err := p.Free(live[i].oid); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
				continue
			}
			n := uint64(rng.Intn(2000) + 1)
			oid, err := p.Alloc(n)
			if err != nil {
				continue // heap full is fine
			}
			live = append(live, obj{oid, n})
		}
		if _, err := p.Check(); err != nil {
			return false
		}
		for i := range live {
			for j := i + 1; j < len(live); j++ {
				a, b := live[i], live[j]
				if a.oid.Off < b.oid.Off+b.n && b.oid.Off < a.oid.Off+a.n {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func createPoolQuick() (*Pool, *memRegion) {
	r := newMemRegion(1<<20, true)
	p, err := Create(r, "quick")
	if err != nil {
		panic(err)
	}
	return p, r
}
