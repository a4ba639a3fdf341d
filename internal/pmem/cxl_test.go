package pmem_test

import (
	"testing"

	"cxlpmem/internal/core"
	"cxlpmem/internal/fpga"
	"cxlpmem/internal/pmem"
	"cxlpmem/internal/topology"
	"cxlpmem/internal/units"
)

// TestUpdateZeroAllocCXL: a committed 64 B Update over Setup #1's 1-way
// CXL mount makes no Go allocation. The transaction runs on its lane's
// own Tx and stages its undo entry and lane words in the lane's
// buffers, and nothing below the pool's Region allocates per op. The
// same transaction through Begin allocates only its fresh Tx.
func TestUpdateZeroAllocCXL(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	rt, err := core.NewSetup1(topology.Setup1Options{FPGA: fpga.Options{ChannelCapacity: 8 * units.MiB}})
	if err != nil {
		t.Fatal(err)
	}
	n, ok := rt.CXLNode()
	if !ok {
		t.Fatal("no CXL node")
	}
	p, err := rt.CreatePool(n.ID, "alloc-tx", "alloc", 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	oid, err := p.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	var data [64]byte
	store := func(v []byte) error {
		copy(v, data[:])
		return nil
	}
	i := 0
	update := func() {
		data[0] = byte(i)
		if err := p.Update(oid, uint64(i%4*64), 64, store); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range pmem.TxLanes { // every lane carries an entry once
		update()
	}
	if allocs := testing.AllocsPerRun(100, update); allocs != 0 {
		t.Errorf("Update allocs = %v per op, want 0", allocs)
	}
	// Begin's fresh Tx is the explicit path's only allocation.
	explicit := func() {
		tx, err := p.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.AddRange(oid, 0, 64); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, explicit); allocs != 1 {
		t.Errorf("Begin, AddRange and Commit allocs = %v per op, want 1 (the Tx)", allocs)
	}
}
