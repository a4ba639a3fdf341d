package cxl

import (
	"fmt"

	"cxlpmem/internal/units"
)

// Extent management for dynamic capacity. CXL 3.0's Dynamic Capacity
// Device (DCD) model lets a fabric manager grant and reclaim capacity
// as *extents* while hosts run, from a device-physical address space
// in which line-aligned ranges are reserved and returned.
// ExtentAllocator is that address space — a first-fit free-list
// allocator with coalescing on release, used by the MLD for its pool
// extents and by the fabric manager for each tenant's device address
// space.

// Extent is a half-open device-physical range [Base, Base+Size).
type Extent struct {
	Base uint64
	Size uint64
}

// End returns the first address past the extent.
func (e Extent) End() uint64 { return e.Base + e.Size }

func (e Extent) String() string { return fmt.Sprintf("[%#x+%#x)", e.Base, e.Size) }

// ExtentAllocator hands out line-aligned extents from a fixed-capacity
// address space. Allocation is first-fit (lowest base wins); release
// coalesces with free neighbours, so a fully released space always
// collapses back to one extent and Remaining returns to its initial
// value. The allocator does no locking: the MLD and the fabric manager
// each guard their allocator with their own mutex.
type ExtentAllocator struct {
	capacity uint64
	free     []Extent // sorted by Base, no two adjacent or overlapping
}

// NewExtentAllocator builds an allocator over [0, capacity).
func NewExtentAllocator(capacity units.Size) (*ExtentAllocator, error) {
	if capacity <= 0 || capacity%units.CacheLine != 0 {
		return nil, fmt.Errorf("cxl: extent allocator: invalid capacity %d", capacity)
	}
	return &ExtentAllocator{
		capacity: uint64(capacity),
		free:     []Extent{{Base: 0, Size: uint64(capacity)}},
	}, nil
}

// Remaining sums the free extents.
func (a *ExtentAllocator) Remaining() units.Size {
	var n uint64
	for _, e := range a.free {
		n += e.Size
	}
	return units.Size(n)
}

// FreeExtents returns a copy of the free list (sorted by base).
func (a *ExtentAllocator) FreeExtents() []Extent {
	out := make([]Extent, len(a.free))
	copy(out, a.free)
	return out
}

// Alloc reserves a contiguous extent of exactly size bytes, first-fit.
// It fails when size is invalid or no single free extent is large
// enough, even if the fragmented total would suffice — callers that can
// live with a scattered grant use AllocAny in a loop instead.
func (a *ExtentAllocator) Alloc(size units.Size) (Extent, error) {
	if size <= 0 || size%units.CacheLine != 0 {
		return Extent{}, fmt.Errorf("cxl: extent alloc: invalid size %d", size)
	}
	want := uint64(size)
	for i, e := range a.free {
		if e.Size < want {
			continue
		}
		out := Extent{Base: e.Base, Size: want}
		if e.Size == want {
			a.free = append(a.free[:i], a.free[i+1:]...)
		} else {
			a.free[i] = Extent{Base: e.Base + want, Size: e.Size - want}
		}
		return out, nil
	}
	return Extent{}, fmt.Errorf("cxl: extent alloc: no free extent holds %v (remaining %v)", size, a.Remaining())
}

// AllocAny reserves the lowest free extent, clipped to at most max
// bytes. ok is false when the space is exhausted or max is not a
// positive line multiple. Looping AllocAny until a demand is met walks
// a fragmented space chunk by chunk.
func (a *ExtentAllocator) AllocAny(max units.Size) (Extent, bool) {
	if max <= 0 || max%units.CacheLine != 0 || len(a.free) == 0 {
		return Extent{}, false
	}
	e := a.free[0]
	got := e.Size
	if got > uint64(max) {
		got = uint64(max)
	}
	out := Extent{Base: e.Base, Size: got}
	if e.Size == got {
		a.free = a.free[1:]
	} else {
		a.free[0] = Extent{Base: e.Base + got, Size: e.Size - got}
	}
	return out, true
}

// Free returns an extent to the pool, coalescing with free neighbours.
// A release that is unaligned, escapes the address space, or overlaps
// the free list (double release) is refused with no state change.
func (a *ExtentAllocator) Free(ext Extent) error {
	if ext.Size == 0 || ext.Base%uint64(units.CacheLine) != 0 || ext.Size%uint64(units.CacheLine) != 0 {
		return fmt.Errorf("cxl: extent free: invalid extent %v", ext)
	}
	if ext.End() < ext.Base || ext.End() > a.capacity {
		return fmt.Errorf("cxl: extent free: %v outside capacity %#x", ext, a.capacity)
	}
	// Find the insertion point: first free extent at or after ext.
	i := 0
	for i < len(a.free) && a.free[i].Base < ext.Base {
		i++
	}
	if i > 0 && a.free[i-1].End() > ext.Base {
		return fmt.Errorf("cxl: extent free: %v overlaps free %v (double release?)", ext, a.free[i-1])
	}
	if i < len(a.free) && ext.End() > a.free[i].Base {
		return fmt.Errorf("cxl: extent free: %v overlaps free %v (double release?)", ext, a.free[i])
	}
	// Coalesce with the left and/or right neighbour.
	mergeLeft := i > 0 && a.free[i-1].End() == ext.Base
	mergeRight := i < len(a.free) && a.free[i].Base == ext.End()
	switch {
	case mergeLeft && mergeRight:
		a.free[i-1].Size += ext.Size + a.free[i].Size
		a.free = append(a.free[:i], a.free[i+1:]...)
	case mergeLeft:
		a.free[i-1].Size += ext.Size
	case mergeRight:
		a.free[i].Base = ext.Base
		a.free[i].Size += ext.Size
	default:
		a.free = append(a.free, Extent{})
		copy(a.free[i+1:], a.free[i:])
		a.free[i] = ext
	}
	return nil
}
