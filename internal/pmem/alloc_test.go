package pmem

import (
	"bytes"
	"math/rand"
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
// (the split-off tail's header, the block header or the object's
// bytes) gives its block back whole, so the heap is as before, the
// same allocation then lands in the same place, and the pool reopens
// clean.
func TestAllocIOErrorLeaksNothing(t *testing.T) {
	for _, name := range []string{"Alloc", "AllocFrom"} {
		for k := 1; k <= 3; k++ {
			r := newMemRegion(testPoolSize, true)
			p, err := Create(r, "stream-arrays")
			if err != nil {
				t.Fatal(err)
			}
			alloc := func() (OID, error) {
				if name == "Alloc" {
					return p.Alloc(1000)
				}
				return p.AllocFrom(make([]byte, 1000))
			}
			before, err := p.Check()
			if err != nil {
				t.Fatal(err)
			}
			r.failAt = r.writes + k
			if _, err := alloc(); err == nil {
				t.Fatalf("%s with write %d failing succeeded", name, k)
			}
			after, err := p.Check()
			if err != nil || after != before {
				t.Errorf("%s, write %d failed: heap %+v, %v; want %+v", name, k, after, err, before)
			}
			oid, err := alloc()
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
			if rep, err := p2.Check(); err != nil || rep.AllocatedBlocks != 1 {
				t.Errorf("%s, write %d failed: after reopen heap %+v, %v; want one live block", name, k, rep, err)
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
