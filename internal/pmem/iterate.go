package pmem

// Object iteration, the pmemobj_first/pmemobj_next analogue: walking
// every live allocation of a pool. PMDK exposes this for garbage
// inspection and leak hunting; pmemcli lists a pool's objects and live
// bytes with it, and the checkpoint tests use LiveBytes to prove a
// failed Save leaks nothing.

// ObjectInfo describes one live allocation.
type ObjectInfo struct {
	// OID of the object.
	OID OID
	// Size requested at allocation time.
	Size uint64
	// IsRoot marks the pool's root object.
	IsRoot bool
}

// Objects returns every live allocation in ascending address order.
func (p *Pool) Objects() ([]ObjectInfo, error) {
	p.stateMu.RLock()
	defer p.stateMu.RUnlock()
	if err := p.checkLive("objects"); err != nil {
		return nil, err
	}
	p.heapMu.Lock()
	defer p.heapMu.Unlock()
	var out []ObjectInfo
	err := p.heap.walk("objects", func(off, _, flags, user uint64) {
		if flags&flagAllocated != 0 {
			data := off + blockHeaderSize
			out = append(out, ObjectInfo{
				OID:    OID{PoolID: p.poolID, Off: data},
				Size:   user,
				IsRoot: data == p.rootOff,
			})
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// First returns the first live object, or ok=false for an empty pool.
func (p *Pool) First() (ObjectInfo, bool, error) {
	objs, err := p.Objects()
	if err != nil || len(objs) == 0 {
		return ObjectInfo{}, false, err
	}
	return objs[0], true, nil
}

// Next returns the live object following oid in address order.
func (p *Pool) Next(oid OID) (ObjectInfo, bool, error) {
	objs, err := p.Objects()
	if err != nil {
		return ObjectInfo{}, false, err
	}
	for i, o := range objs {
		if o.OID == oid && i+1 < len(objs) {
			return objs[i+1], true, nil
		}
	}
	return ObjectInfo{}, false, nil
}

// LiveBytes sums the user sizes of all live objects.
func (p *Pool) LiveBytes() (uint64, error) {
	objs, err := p.Objects()
	if err != nil {
		return 0, err
	}
	var total uint64
	for _, o := range objs {
		total += o.Size
	}
	return total, nil
}
