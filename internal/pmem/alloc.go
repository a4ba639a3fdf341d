package pmem

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
)

// Persistent heap. Objects are carved from the region after the undo
// log, each preceded by a 64-byte block header so that data offsets are
// 64-byte aligned (cache-line alignment, and sufficient for Float64s
// views). The free list is volatile, kept sorted by offset, and rebuilt
// on open by walking the block chain; headers are persisted at every
// state change so the walk is always well-formed after a crash. An
// allocation persists its block's header and bytes as one write, after
// the split-off tail's header. A crash between header persist and
// caller visibility can at worst leak one block — the same failure
// window PMDK closes with its redo log and detects with pmempool check;
// our Check performs the equivalent leak scan.

const (
	// blockHeaderSize precedes every block; 64 keeps data aligned.
	blockHeaderSize = 64
	// heapAlign aligns the heap start.
	heapAlign = 64
	// minSplit is the smallest free remainder worth splitting off.
	minSplit = blockHeaderSize + 64

	blockMagic uint32 = 0xB10C_0DE5

	flagAllocated uint64 = 1 << 0
)

// block header layout (offsets within the 64-byte header):
//
//	0:4   magic
//	4:8   reserved
//	8:16  block size including header (u64)
//	16:24 flags (u64)
//	24:32 requested (user) size (u64)
const (
	bhMagic = 0
	bhSize  = 8
	bhFlags = 16
	bhUser  = 24
)

// heap is the pool's block allocator. Its free list holds every free
// block the view's chain shows, a run of adjacent ones as one entry, in
// ascending offset order, so first fit is a scan from the front and
// free finds a block's place and its free neighbours by binary search.
type heap struct {
	p     *Pool
	start uint64 // first block header offset
	end   uint64 // one past the heap

	freeList []freeBlock // volatile; sorted by off
}

// freeBlock is one free-list entry: a free block's header offset and
// its size including the header.
type freeBlock struct{ off, size uint64 }

func newHeap(p *Pool, heapOff, poolSize uint64) *heap {
	return &heap{p: p, start: heapOff, end: poolSize}
}

// search returns the index of the first free-list entry at or after off.
func (h *heap) search(off uint64) int {
	i, _ := slices.BinarySearchFunc(h.freeList, off, func(b freeBlock, off uint64) int {
		return cmp.Compare(b.off, off)
	})
	return i
}

// format writes a single free block covering the whole heap.
func (h *heap) format() error {
	if h.start+blockHeaderSize >= h.end {
		return &PoolError{Op: "format", Layout: h.p.layout, Why: "no room for heap"}
	}
	h.writeHeader(h.start, h.end-h.start, 0, 0)
	if err := h.p.persistRaw(int64(h.start), blockHeaderSize); err != nil {
		return err
	}
	h.freeList = append(h.freeList[:0], freeBlock{h.start, h.end - h.start})
	return nil
}

// walk visits the block chain from the heap start in offset order,
// passing visit each block's header offset, size, flags and requested
// size. It stops at the first header that is not a block's, does not
// fit, or whose size is below a header or beyond the room left in the
// heap, and reports it as a PoolError under op. Bounding each size by
// the room left keeps the next offset from wrapping, so every walk
// ends.
func (h *heap) walk(op string, visit func(off, size, flags, user uint64)) error {
	off := h.start
	for off < h.end && h.end-off >= blockHeaderSize {
		magic, size, flags, user := h.readHeader(off)
		if magic != blockMagic || size < blockHeaderSize || size > h.end-off {
			break
		}
		visit(off, size, flags, user)
		off += size
	}
	if off != h.end {
		return &PoolError{Op: op, Layout: h.p.layout, Why: fmt.Sprintf("corrupt block header at %#x", off)}
	}
	return nil
}

// rebuild reconstructs the volatile free list by walking the chain,
// which visits the free blocks in offset order. Adjacent free blocks,
// which pools written before free merged backwards can hold, are
// listed as one entry; the next header written from that entry (an
// allocation from it, or a free beside it) spans them on the media too.
func (h *heap) rebuild() error {
	h.freeList = h.freeList[:0]
	return h.walk("rebuild", func(off, size, flags, _ uint64) {
		if flags&flagAllocated != 0 {
			return
		}
		if n := len(h.freeList); n > 0 && h.freeList[n-1].off+h.freeList[n-1].size == off {
			h.freeList[n-1].size += size
			return
		}
		h.freeList = append(h.freeList, freeBlock{off, size})
	})
}

func (h *heap) writeHeader(off, size, flags, user uint64) {
	b := h.p.view[off : off+blockHeaderSize]
	for i := range b {
		b[i] = 0
	}
	binary.LittleEndian.PutUint32(b[bhMagic:], blockMagic)
	binary.LittleEndian.PutUint64(b[bhSize:], size)
	binary.LittleEndian.PutUint64(b[bhFlags:], flags)
	binary.LittleEndian.PutUint64(b[bhUser:], user)
}

func (h *heap) readHeader(off uint64) (magic uint32, size, flags, user uint64) {
	b := h.p.view[off : off+blockHeaderSize]
	return binary.LittleEndian.Uint32(b[bhMagic:]),
		binary.LittleEndian.Uint64(b[bhSize:]),
		binary.LittleEndian.Uint64(b[bhFlags:]),
		binary.LittleEndian.Uint64(b[bhUser:])
}

// alloc returns the data offset of a new n-byte object holding src
// followed by zeroes (all zeroes when src is nil; len(src) <= n). It
// takes the lowest-offset free block with room (first fit from the
// front of the sorted list). A split persists the tail's free header
// first; then the block header and the object's bytes, which sit next
// to each other, go to the media in one flush, so each byte crosses
// once. If a crash keeps that flush's header line, the block is
// allocated but unpublished (the one-block leak Check reports); if it
// loses that line, the old free header still spans the tail's header
// and any bytes that landed.
func (h *heap) alloc(n uint64, src []byte) (uint64, error) {
	// Clamping n to the pool size keeps need from wrapping; no free
	// block fits a clamped n.
	need := alignUp64(min(n, h.end), 64) + blockHeaderSize
	i := slices.IndexFunc(h.freeList, func(b freeBlock) bool { return b.size >= need })
	if i < 0 {
		return 0, &PoolError{Op: "alloc", Layout: h.p.layout, Why: fmt.Sprintf("out of space for %d bytes", n)}
	}
	off, size := h.freeList[i].off, h.freeList[i].size
	blk := size
	if remainder := size - need; remainder >= minSplit {
		// Split: write the tail free block first, then shrink this
		// block — ordering keeps the walk consistent at any crash
		// point (until the shrunken header lands, the old header
		// still covers the full extent). The tail keeps this entry's
		// place in the list.
		tail := off + need
		h.writeHeader(tail, remainder, 0, 0)
		if err := h.p.persistRaw(int64(tail), blockHeaderSize); err != nil {
			return 0, h.unalloc(off, size, err)
		}
		h.freeList[i] = freeBlock{tail, remainder}
		blk = need
	} else {
		h.freeList = slices.Delete(h.freeList, i, i+1)
	}
	h.writeHeader(off, blk, flagAllocated, n)
	// Fill the object: src, then zeroes to the end of the block
	// (allocations observe zeroed memory, as with the pmemobj_zalloc
	// semantics we adopt; a constructor's slack is zeroed too).
	obj := h.p.view[off+blockHeaderSize : off+blk]
	clear(obj[copy(obj, src):])
	if err := h.p.persistRaw(int64(off), int64(blk)); err != nil {
		return 0, h.unalloc(off, size, err)
	}
	return off + blockHeaderSize, nil
}

// unalloc undoes an alloc that failed with err: the free block of size
// bytes at off is whole and free again in the view and the list, so the
// failure leaks nothing. The list entry inside the block, if any, is
// the block itself (its tail's header failed) or its split-off tail,
// and it is replaced; otherwise the block is inserted. It persists the
// restored header too; if that write also fails, the media holds either
// the old free header or the allocated one, and a reopen finds at most
// this one block leaked, as after a crash.
func (h *heap) unalloc(off, size uint64, err error) error {
	if i := h.search(off); i < len(h.freeList) && h.freeList[i].off < off+size {
		h.freeList[i] = freeBlock{off, size}
	} else {
		h.freeList = slices.Insert(h.freeList, i, freeBlock{off, size})
	}
	h.writeHeader(off, size, 0, 0)
	_ = h.p.persistRaw(int64(off), blockHeaderSize) // err is the failure to report
	return err
}

// spanned reports whether the free-list entry before position i, the
// place of off in the list, covers off. A block freed into its free
// predecessor keeps its old header, still marked allocated, inside the
// merged block, and that header is no block's.
func (h *heap) spanned(i int, off uint64) bool {
	return i > 0 && h.freeList[i-1].off+h.freeList[i-1].size > off
}

// free releases the block whose data starts at dataOff, merging it with
// the free blocks on either side of it. It writes one header: the free
// predecessor's when there is one, else the block's own, so until that
// header lands the chain still shows the block allocated. If the write
// fails, the view's header is restored, so the view and the list are as
// they were and the free can be retried.
func (h *heap) free(dataOff uint64) error {
	off := dataOff - blockHeaderSize
	magic, size, flags, _ := h.readHeader(off)
	if magic != blockMagic {
		return &PoolError{Op: "free", Layout: h.p.layout, Why: fmt.Sprintf("no block at %#x", dataOff)}
	}
	i := h.search(off)
	if flags&flagAllocated == 0 || h.spanned(i, off) {
		return &PoolError{Op: "free", Layout: h.p.layout, Why: fmt.Sprintf("double free at %#x", dataOff)}
	}
	lo, hi := i, i // the entries the merged block replaces
	start, end := off, off+size
	if i > 0 && h.freeList[i-1].off+h.freeList[i-1].size == off {
		lo--
		start = h.freeList[lo].off
	}
	if i < len(h.freeList) && h.freeList[i].off == end {
		end += h.freeList[i].size
		hi++
	}
	old := [blockHeaderSize]byte(h.p.view[start : start+blockHeaderSize])
	h.writeHeader(start, end-start, 0, 0)
	if err := h.p.persistRaw(int64(start), blockHeaderSize); err != nil {
		copy(h.p.view[start:], old[:])
		return err
	}
	h.freeList = slices.Replace(h.freeList, lo, hi, freeBlock{start, end - start})
	return nil
}

// userSize returns the requested size of an allocated block.
func (h *heap) userSize(dataOff uint64) (uint64, error) {
	off := dataOff - blockHeaderSize
	magic, _, flags, user := h.readHeader(off)
	if magic != blockMagic || flags&flagAllocated == 0 || h.spanned(h.search(off), off) {
		return 0, &PoolError{Op: "allocsize", Layout: h.p.layout, Why: fmt.Sprintf("no allocated block at %#x", dataOff)}
	}
	return user, nil
}

// CheckReport is the result of a heap consistency scan.
type CheckReport struct {
	// Blocks walked in total.
	Blocks int
	// AllocatedBlocks currently live.
	AllocatedBlocks int
	// FreeBlocks on the free chain.
	FreeBlocks int
	// FreeBytes available (including headers of free blocks).
	FreeBytes uint64
	// Corrupt headers encountered (the walk stops at the first).
	Corrupt bool
}

// Check walks the heap like `pmempool check`, validating every header
// and summarising occupancy. It never mutates the pool.
func (p *Pool) Check() (CheckReport, error) {
	p.stateMu.RLock()
	defer p.stateMu.RUnlock()
	if err := p.checkLive("check"); err != nil {
		return CheckReport{}, err
	}
	p.heapMu.Lock()
	defer p.heapMu.Unlock()
	var r CheckReport
	err := p.heap.walk("check", func(_, size, flags, _ uint64) {
		r.Blocks++
		if flags&flagAllocated != 0 {
			r.AllocatedBlocks++
		} else {
			r.FreeBlocks++
			r.FreeBytes += size
		}
	})
	r.Corrupt = err != nil
	return r, err
}
