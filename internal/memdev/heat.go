package memdev

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cxlpmem/internal/units"
)

// Heat is a windowed per-region access counter attached to a device's
// Stats — the device-side hotness telemetry a tiering policy daemon
// consumes. The device address space is split into fixed-size regions
// (typically one 2 MiB migration granule each); every ReadAt/WriteAt
// the device serves bumps the counter of each region it touches, so
// hotness is observed at the media itself, no matter which path (line,
// burst, direct) delivered the access.
//
// Counters are windowed into epochs: the current window accumulates
// atomically on the access path, and AdvanceEpoch retires it — the
// retired window is what policy reads (EpochCount), while a fresh
// window starts accumulating. Retiring is the daemon's cold path; the
// hot path is one atomic add per touched region.
type Heat struct {
	granule int64
	cur     []atomic.Uint64

	// mu guards the retired window and the epoch counter (cold path:
	// AdvanceEpoch and the EpochCount readers).
	mu     sync.Mutex
	prev   []uint64
	epochs uint64
}

// newHeat sizes a heat map for a device capacity.
func newHeat(capacity units.Size, granule int64) *Heat {
	n := (capacity.Bytes() + granule - 1) / granule
	return &Heat{
		granule: granule,
		cur:     make([]atomic.Uint64, n),
		prev:    make([]uint64, n),
	}
}

// touch records one access covering [off, off+n). Accesses confined to
// one region — every CXL line and every burst below the granule — cost
// a single atomic add.
func (h *Heat) touch(off int64, n int) {
	if off < 0 || n <= 0 {
		return
	}
	first := off / h.granule
	last := (off + int64(n) - 1) / h.granule
	if first < 0 || first >= int64(len(h.cur)) {
		return
	}
	if last >= int64(len(h.cur)) {
		last = int64(len(h.cur)) - 1
	}
	for i := first; i <= last; i++ {
		h.cur[i].Add(1)
	}
}

// AdvanceEpoch retires the current window: per-region counts move into
// the readable epoch snapshot and a fresh window starts. Returns the
// new epoch number (the first AdvanceEpoch returns 1).
func (h *Heat) AdvanceEpoch() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.cur {
		h.prev[i] = h.cur[i].Swap(0)
	}
	h.epochs++
	return h.epochs
}

// EpochCount returns the retired-window access count of the region
// containing off (0 before the first AdvanceEpoch or out of range).
func (h *Heat) EpochCount(off int64) uint64 {
	i := off / h.granule
	if off < 0 || i >= int64(len(h.prev)) {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.prev[i]
}

// EnableHeat attaches a windowed per-region heat map to the stats,
// sized for the given capacity at the given region granule, and
// returns it. Idempotent: a second call with the same granule returns
// the existing map (counts preserved); a different granule is an
// error. Until enabled, the access-path cost is one atomic load.
func (s *Stats) EnableHeat(capacity units.Size, granule int64) (*Heat, error) {
	if granule <= 0 {
		return nil, fmt.Errorf("memdev: heat granule %d not positive", granule)
	}
	for {
		if h := s.heat.Load(); h != nil {
			if h.granule != granule {
				return nil, fmt.Errorf("memdev: heat already enabled at granule %d, asked %d", h.granule, granule)
			}
			return h, nil
		}
		h := newHeat(capacity, granule)
		if s.heat.CompareAndSwap(nil, h) {
			return h, nil
		}
	}
}

// TouchHeat records an access against the heat map, if one is
// attached. Device implementations call this next to the Reads/Writes
// counters on their access paths; when heat is disabled it is one
// atomic pointer load.
func (s *Stats) TouchHeat(off int64, n int) {
	if h := s.heat.Load(); h != nil {
		h.touch(off, n)
	}
}
