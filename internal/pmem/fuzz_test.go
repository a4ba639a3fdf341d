package pmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"
)

// errWatchdog is within's result when fn outlived its deadline.
var errWatchdog = errors.New("watchdog expired")

// within runs fn on its own goroutine and returns its error, failing
// the test and returning errWatchdog if fn has not returned after d: a
// walk that never ends fails here instead of hanging the suite.
func within(t *testing.T, d time.Duration, what string, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Errorf("%s did not return within %v", what, d)
		return errWatchdog
	}
}

// openImage is a crashed pool's media: three objects allocated and lane
// lane left active with one undo entry over the first, the state
// recovery sees after a power cut inside a transaction. lanes holds
// every lane's header offset and blocks the chain's block header
// offsets, in order.
type openImage struct {
	data    []byte
	heapOff uint64
	lane    uint64
	lanes   [TxLanes]uint64
	blocks  []uint64
}

var (
	seedImageOnce sync.Once
	seedImage     openImage
)

// poolImage builds the image once; callers copy its data.
func poolImage(t testing.TB) openImage {
	seedImageOnce.Do(func() {
		r := newMemRegion(1<<20, true)
		p, err := Create(r, "fuzz")
		if err != nil {
			panic(err)
		}
		var oids []OID
		for _, n := range []uint64{64, 200, 64} {
			oid, err := p.Alloc(n)
			if err != nil {
				panic(err)
			}
			oids = append(oids, oid)
		}
		tx, err := p.Begin()
		if err != nil {
			panic(err)
		}
		if err := tx.AddRange(oids[0], 0, 64); err != nil {
			panic(err)
		}
		img := openImage{heapOff: p.heapOff, lane: tx.lane.idx}
		for i := range img.lanes {
			img.lanes[i] = p.laneBase(uint64(i))
		}
		for off := p.heapOff; off < uint64(p.size); off += binary.LittleEndian.Uint64(p.view[off+bhSize:]) {
			img.blocks = append(img.blocks, off)
		}
		p.SimulateCrash()
		img.data = bytes.Clone(r.data)
		seedImage = img
	})
	if seedImage.data == nil {
		t.Fatal("seed image not built")
	}
	return seedImage
}

// wrapBlockSize returns the size that makes block i's successor offset
// wrap round to block i-1: 2^64 minus the distance back.
func (img openImage) wrapBlockSize(i int) uint64 {
	return -(img.blocks[i] - img.blocks[i-1])
}

// TestHeapWalkRejectsWrappingBlockSize: a block header whose size wraps
// the next offset back to the previous block is corrupt. Open, Check
// and Objects must each report it rather than walk the chain forever.
func TestHeapWalkRejectsWrappingBlockSize(t *testing.T) {
	img := poolImage(t)
	size := img.wrapBlockSize(2)
	r := newMemRegion(len(img.data), true)
	copy(r.data, img.data)
	binary.LittleEndian.PutUint64(r.data[img.blocks[2]+bhSize:], size)
	if err := within(t, 2*time.Second, "Open", func() error { _, err := Open(r, "fuzz"); return err }); err == nil {
		t.Error("Open accepted a block size that wraps the heap walk")
	}

	r = newMemRegion(len(img.data), true)
	copy(r.data, img.data)
	p, err := Open(r, "fuzz")
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(p.view[img.blocks[2]+bhSize:], size)
	if err := within(t, 2*time.Second, "Check", func() error { _, err := p.Check(); return err }); err == nil {
		t.Error("Check accepted a block size that wraps the heap walk")
	}
	if err := within(t, 2*time.Second, "Objects", func() error { _, err := p.Objects(); return err }); err == nil {
		t.Error("Objects accepted a block size that wraps the heap walk")
	}
}

// FuzzPoolOpen writes arbitrary u64 values over the control words of a
// crashed pool's image — lane headers, the active lane's undo-entry
// header and block headers — and opens it. Open must return, within a
// watchdog, without panicking; when it succeeds, Check and Objects
// must return, and recovery may have changed no byte below the heap but
// the 8-byte headers of the lanes it found active.
//
// Each patch is 9 bytes: a slot selector, then the little-endian value.
func FuzzPoolOpen(f *testing.F) {
	img := poolImage(f)
	// The control words the patches may hit, as media offsets.
	slots := img.lanes[:]
	entry := img.lanes[img.lane] + laneHeaderSize
	slots = append(slots, entry, entry+8, entry+16)
	for _, b := range img.blocks {
		slots = append(slots, b+bhMagic, b+bhSize, b+bhFlags, b+bhUser)
	}
	slotOf := func(off uint64) byte {
		for i, s := range slots {
			if s == off {
				return byte(i)
			}
		}
		panic("no slot")
	}
	patch := func(slot byte, v uint64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{slot}, v)
	}
	f.Add([]byte{})
	f.Add(patch(slotOf(img.blocks[2]+bhSize), img.wrapBlockSize(2)))
	f.Add(patch(slotOf(entry), 8))
	f.Add(patch(slotOf(entry+8), ^uint64(0)))
	f.Add(patch(slotOf(entry), ^uint64(0)-7))

	f.Fuzz(func(t *testing.T, patches []byte) {
		r := newMemRegion(len(img.data), true)
		copy(r.data, img.data)
		for ; len(patches) >= 9; patches = patches[9:] {
			off := slots[int(patches[0])%len(slots)]
			copy(r.data[off:off+8], patches[1:9])
		}
		before := bytes.Clone(r.data[:img.heapOff])
		var p *Pool
		err := within(t, 5*time.Second, "Open", func() (err error) {
			p, err = Open(r, "fuzz")
			return err
		})
		if err != nil {
			return
		}
		if err := within(t, 5*time.Second, "Check", func() error { _, err := p.Check(); return err }); err != nil {
			t.Errorf("Check after a successful Open: %v", err)
		}
		if err := within(t, 5*time.Second, "Objects", func() error { _, err := p.Objects(); return err }); err != nil {
			t.Errorf("Objects after a successful Open: %v", err)
		}
		for _, base := range img.lanes {
			if binary.LittleEndian.Uint32(before[base+logState:]) == logActive {
				copy(before[base:base+laneHeaderSize], r.data[base:])
			}
		}
		if !bytes.Equal(r.data[:img.heapOff], before) {
			t.Error("Open changed media below the heap beyond the active lanes' headers")
		}
	})
}
