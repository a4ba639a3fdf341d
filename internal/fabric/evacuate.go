package fabric

import (
	"fmt"

	"cxlpmem/internal/cxl"
	"cxlpmem/internal/ras"
	"cxlpmem/internal/units"
)

// EvacuatePool drains every extent backed by the named pool onto the
// remaining healthy pools while tenant traffic continues, then leaves
// the source pool unhealthy (no new grants) and empty. Tenants notice
// nothing: extents are DPA-identified, so re-homing the pool bytes is
// invisible to the DCD protocol.
//
// Per active extent the move is: freeze writes (readers keep hitting
// the now-stable source copy, writers spin in WriteAt until thawed),
// publish, drain in-flight accesses, copy source → destination, re-home
// the mapping, publish, drain again, then scrub and free the source
// bytes — the same publish→drain→scrub→free ordering dropLocked uses,
// so a straggling access through the old table can never read another
// tenant's future bytes or write into freed capacity.
//
// Returns the number of extents moved. On error (typically no healthy
// capacity left) extents already moved stay moved and the pool stays
// unhealthy; add a spare pool and call again to finish.
func (m *Manager) EvacuatePool(name string) (moved int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	src := m.poolLocked(name)
	if src == nil {
		return 0, fmt.Errorf("fabric: no pool %s", name)
	}
	src.healthy = false
	for _, tname := range m.order {
		t := m.tenants[tname]
		for _, snap := range sortedLocked(t) {
			live := t.extents[snap.Tag]
			if live == nil || live.Pool != name {
				continue
			}
			switch live.State {
			case ExtentRevoked:
				// Pool bytes were already scrubbed and released by the
				// forced reclaim; only the tenant-space tombstone is
				// left, and it references no media.
				continue
			case ExtentPending:
				// Never mapped, nothing to copy: re-reserve on a healthy
				// pool and release the source bytes.
				dst, pl, ok := m.allocExactLocked(live.Size, t.memTypes)
				if !ok {
					return moved, fmt.Errorf("fabric: evacuating %s: no healthy pool holds %v", name, units.Size(live.Size))
				}
				if err := src.mld.ReleaseExtent(cxl.Extent{Base: live.PoolBase, Size: live.Size}); err != nil {
					return moved, err
				}
				live.PoolBase, live.Pool = dst.Base, pl.name
				moved++
			case ExtentActive:
				dst, pl, ok := m.allocExactLocked(live.Size, t.memTypes)
				if !ok {
					return moved, fmt.Errorf("fabric: evacuating %s: no healthy pool holds %v", name, units.Size(live.Size))
				}
				if err := m.migrateLocked(t, live, src, pl, dst); err != nil {
					return moved, err
				}
				moved++
			}
		}
	}
	return moved, nil
}

// allocExactLocked reserves exactly size contiguous bytes from the
// first healthy pool that can provide them (a migration target must
// hold the whole extent — splitting would change the tenant's extent
// list mid-flight) and whose media kind the tenant's mask allows.
func (m *Manager) allocExactLocked(size uint64, mask MemTypes) (cxl.Extent, *pool, bool) {
	for _, p := range m.pools {
		if !p.healthy || !mask.allows(p.mld.Media().Profile().Kind) {
			continue
		}
		ext, ok := p.mld.AllocExtentAny(units.Size(size))
		if !ok {
			continue
		}
		if ext.Size < size {
			if err := p.mld.ReleaseExtent(ext); err != nil {
				panic(fmt.Sprintf("fabric: evacuate alloc rollback: %v", err))
			}
			continue
		}
		return ext, p, true
	}
	return cxl.Extent{}, nil, false
}

// migrateLocked moves one active extent's bytes from src to dst while
// the tenant keeps reading.
func (m *Manager) migrateLocked(t *Tenant, live *ExtentInfo, src, dstPool *pool, dst cxl.Extent) error {
	release := func(p *pool, e cxl.Extent) {
		if err := p.mld.ReleaseExtent(e); err != nil {
			panic(fmt.Sprintf("fabric: evacuate release: %v", err))
		}
	}
	live.frozen = true
	publishTableLocked(t)
	t.dev.drain()

	srcMedia, dstMedia := src.mld.Media(), dstPool.mld.Media()
	buf := make([]byte, min(live.Size, 1<<20))
	for off := uint64(0); off < live.Size; {
		n := uint64(len(buf))
		if off+n > live.Size {
			n = live.Size - off
		}
		if err := srcMedia.ReadAt(buf[:n], int64(live.PoolBase+off)); err != nil {
			live.frozen = false
			publishTableLocked(t)
			release(dstPool, dst)
			return err
		}
		if err := dstMedia.WriteAt(buf[:n], int64(dst.Base+off)); err != nil {
			live.frozen = false
			publishTableLocked(t)
			release(dstPool, dst)
			return err
		}
		off += n
	}

	oldBase := live.PoolBase
	live.PoolBase, live.Pool = dst.Base, dstPool.name
	live.frozen = false
	publishTableLocked(t)
	t.dev.drain()
	if err := ras.ZeroFill(srcMedia, oldBase, live.Size); err != nil {
		return err
	}
	release(src, cxl.Extent{Base: oldBase, Size: live.Size})
	m.evacuatedExtents.Add(1)
	m.evacuatedBytes.Add(int64(live.Size))
	return nil
}
