package pmem

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
)

// memRegion is an in-memory Region for unit tests. cutoff, when >= 0,
// drops every write after the first cutoff writes — simulating power
// loss at an arbitrary persistence boundary. Write number failAt, when
// non-zero, fails with an I/O error and reaches no media. When keep is
// set, write number cutoff+1 is torn instead of dropped: of its 64-byte
// lines, only those whose media offset keep accepts reach media.
type memRegion struct {
	mu         sync.Mutex
	data       []byte
	persistent bool
	writes     int
	cutoff     int
	failAt     int
	keep       func(line int64) bool
}

func newMemRegion(size int, persistent bool) *memRegion {
	return &memRegion{data: make([]byte, size), persistent: persistent, cutoff: -1}
}

func (r *memRegion) ReadAt(p []byte, off int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if off < 0 || off+int64(len(p)) > int64(len(r.data)) {
		return errors.New("memRegion: read out of range")
	}
	copy(p, r.data[off:])
	return nil
}

func (r *memRegion) WriteAt(p []byte, off int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if off < 0 || off+int64(len(p)) > int64(len(r.data)) {
		return errors.New("memRegion: write out of range")
	}
	r.writes++
	if r.writes == r.failAt {
		return errors.New("memRegion: injected write failure")
	}
	if r.cutoff >= 0 && r.writes > r.cutoff {
		if r.writes == r.cutoff+1 && r.keep != nil {
			end := off + int64(len(p))
			for line := off &^ 63; line < end; line += 64 {
				if r.keep(line) {
					lo, hi := max(line, off), min(line+64, end)
					copy(r.data[lo:hi], p[lo-off:hi-off])
				}
			}
		}
		return nil // power was already lost; the store never reached media
	}
	copy(r.data[off:], p)
	return nil
}

func (r *memRegion) Size() int64      { return int64(len(r.data)) }
func (r *memRegion) Persistent() bool { return r.persistent }
func (r *memRegion) PowerCycle() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.persistent {
		for i := range r.data {
			r.data[i] = 0
		}
	}
}

const testPoolSize = 4 << 20

func createPool(t *testing.T) (*Pool, *memRegion) {
	t.Helper()
	r := newMemRegion(testPoolSize, true)
	p, err := Create(r, "stream-arrays")
	if err != nil {
		t.Fatal(err)
	}
	return p, r
}

func TestCreateOpenRoundTrip(t *testing.T) {
	p, r := createPool(t)
	if p.Layout() != "stream-arrays" || p.Size() != testPoolSize || !p.Persistent() {
		t.Error("pool attributes mismatch")
	}
	id := p.PoolID()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := Open(r, "stream-arrays")
	if err != nil {
		t.Fatal(err)
	}
	if p2.PoolID() != id {
		t.Error("pool identity changed across reopen")
	}
}

func TestCreateValidation(t *testing.T) {
	if _, err := Create(nil, "x"); err == nil {
		t.Error("nil region accepted")
	}
	if _, err := Create(newMemRegion(1024, true), "x"); err == nil {
		t.Error("tiny region accepted")
	}
	if _, err := Create(newMemRegion(testPoolSize, true), ""); err == nil {
		t.Error("empty layout accepted")
	}
	if _, err := Create(newMemRegion(testPoolSize, true), strings.Repeat("x", 65)); err == nil {
		t.Error("oversized layout accepted")
	}
	// Double create on the same region refuses.
	r := newMemRegion(testPoolSize, true)
	if _, err := Create(r, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(r, "a"); err == nil {
		t.Error("create over existing pool accepted")
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(nil, "x"); err == nil {
		t.Error("nil region accepted")
	}
	// No pool present.
	if _, err := Open(newMemRegion(testPoolSize, true), "x"); err == nil {
		t.Error("open of empty region accepted")
	}
	// Layout mismatch.
	_, r := createPool(t)
	if _, err := Open(r, "wrong-layout"); err == nil {
		t.Error("layout mismatch accepted")
	}
	// Header corruption is detected by checksum.
	r.data[hdrPoolID] ^= 0xFF
	if _, err := Open(r, "stream-arrays"); err == nil {
		t.Error("corrupted header accepted")
	}
}

func TestCreateOrOpen(t *testing.T) {
	r := newMemRegion(testPoolSize, true)
	p, err := CreateOrOpen(r, "layout")
	if err != nil {
		t.Fatal(err)
	}
	oid, err := p.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := p.View(oid, 128)
	copy(v, "hello")
	if err := p.Persist(oid, 128); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := CreateOrOpen(r, "layout")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := p2.View(oid, 128)
	if err != nil {
		t.Fatal(err)
	}
	if string(v2[:5]) != "hello" {
		t.Error("CreateOrOpen did not reopen the existing pool")
	}
	// Layout mismatch surfaces the open error.
	if _, err := CreateOrOpen(r, "other"); err == nil {
		t.Error("CreateOrOpen with wrong layout accepted")
	}
}

func TestPersistControlsDurability(t *testing.T) {
	p, r := createPool(t)
	oid, err := p.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := p.View(oid, 64)
	copy(v, "persisted")
	if err := p.Persist(oid, 64); err != nil {
		t.Fatal(err)
	}
	p.Drain()
	oid2, err := p.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	v2, _ := p.View(oid2, 64)
	copy(v2, "volatile!")
	// No persist for oid2: its content must be lost after a crash.
	p.SimulateCrash()
	p2, err := Open(r, "stream-arrays")
	if err != nil {
		t.Fatal(err)
	}
	got, err := p2.View(oid, 64)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:9]) != "persisted" {
		t.Errorf("persisted data lost: %q", got[:9])
	}
	got2, err := p2.View(oid2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if string(got2[:9]) == "volatile!" {
		t.Error("unpersisted store survived the crash")
	}
}

func TestVolatileMediaLosesEverything(t *testing.T) {
	// The paper's pmem0/pmem1 are DRAM-emulated: a power cycle wipes
	// them, unlike the battery-backed CXL mount.
	r := newMemRegion(testPoolSize, false)
	p, err := Create(r, "dram-emulated")
	if err != nil {
		t.Fatal(err)
	}
	oid, err := p.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Persist(oid, 64); err != nil {
		t.Fatal(err)
	}
	p.SimulateCrash()
	if _, err := Open(r, "dram-emulated"); err == nil {
		t.Error("pool on volatile media survived power loss")
	}
}

func TestCrashedPoolRejectsUse(t *testing.T) {
	p, _ := createPool(t)
	oid, _ := p.Alloc(64)
	p.SimulateCrash()
	if _, err := p.Alloc(8); err == nil {
		t.Error("alloc on crashed pool accepted")
	}
	if _, err := p.AllocFrom(make([]byte, 8)); err == nil {
		t.Error("AllocFrom on crashed pool accepted")
	}
	if _, err := p.View(oid, 8); err == nil {
		t.Error("view on crashed pool accepted")
	}
	if err := p.Persist(oid, 8); err == nil {
		t.Error("persist on crashed pool accepted")
	}
}

func TestClosedPoolRejectsUse(t *testing.T) {
	p, _ := createPool(t)
	oid, _ := p.Alloc(64)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err == nil {
		t.Error("double close accepted")
	}
	if _, err := p.View(oid, 8); err == nil {
		t.Error("view on closed pool accepted")
	}
	if _, err := p.AllocFrom(make([]byte, 8)); err == nil {
		t.Error("AllocFrom on closed pool accepted")
	}
}

func TestRootObject(t *testing.T) {
	p, r := createPool(t)
	root, err := p.Root(256)
	if err != nil {
		t.Fatal(err)
	}
	if root.IsNull() {
		t.Fatal("null root")
	}
	// Same OID on repeat calls.
	again, err := p.Root(256)
	if err != nil || again != root {
		t.Errorf("second Root = %v, %v; want %v", again, err, root)
	}
	// Size mismatch rejected.
	if _, err := p.Root(512); err == nil {
		t.Error("root size mismatch accepted")
	}
	if _, err := p.Root(0); err == nil {
		t.Error("zero-size root accepted")
	}
	// Root persists across reopen (header is durable).
	v, _ := p.View(root, 256)
	copy(v, "root-data")
	if err := p.Persist(root, 256); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := Open(r, "stream-arrays")
	if err != nil {
		t.Fatal(err)
	}
	root2, err := p2.Root(256)
	if err != nil || root2 != root {
		t.Fatalf("root after reopen = %v, %v", root2, err)
	}
	v2, _ := p2.View(root2, 256)
	if string(v2[:9]) != "root-data" {
		t.Error("root data lost")
	}
	// Root cannot be freed.
	if err := p2.Free(root2); err == nil {
		t.Error("freed the root object")
	}
}

func TestViewValidation(t *testing.T) {
	p, _ := createPool(t)
	oid, _ := p.Alloc(64)
	if _, err := p.View(OID{PoolID: 999, Off: oid.Off}, 8); err == nil {
		t.Error("foreign pool OID accepted")
	}
	if _, err := p.View(OID{PoolID: p.PoolID(), Off: 0}, 8); err == nil {
		t.Error("null OID accepted")
	}
	if _, err := p.View(oid, uint64(testPoolSize)); err == nil {
		t.Error("view past pool end accepted")
	}
}

func TestStatsCount(t *testing.T) {
	p, _ := createPool(t)
	oid, err := p.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	base := p.Stats().Persists.Load()
	if err := p.Persist(oid, 64); err != nil {
		t.Fatal(err)
	}
	p.Drain()
	if got := p.Stats().Persists.Load(); got != base+1 {
		t.Errorf("persists = %d, want %d", got, base+1)
	}
	if p.Stats().Drains.Load() == 0 {
		t.Error("drains not counted")
	}
	if p.Stats().Allocs.Load() == 0 {
		t.Error("allocs not counted")
	}
	if err := p.Free(oid); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Frees.Load() != 1 {
		t.Error("frees not counted")
	}
}

func TestPoolErrorString(t *testing.T) {
	e := &PoolError{Op: "open", Layout: "x", Why: "boom"}
	if !strings.Contains(e.Error(), "open") || !strings.Contains(e.Error(), "boom") {
		t.Errorf("error = %q", e.Error())
	}
	if (OID{}).String() == "" || !(OID{}).IsNull() {
		t.Error("OID basics")
	}
}

func TestViewAliasesPoolMemory(t *testing.T) {
	p, _ := createPool(t)
	oid, _ := p.Alloc(128)
	a, _ := p.View(oid, 128)
	b, _ := p.View(oid, 128)
	copy(a, "aliased")
	if !bytes.Equal(a[:7], b[:7]) {
		t.Error("two views of one object do not alias")
	}
}

// TestSizesNearWrapRejected: offsets and sizes whose sums wrap past
// 2^64 get the error an in-range out-of-bounds call gets, instead of
// a panic or a wrong object.
func TestSizesNearWrapRejected(t *testing.T) {
	const max = ^uint64(0)
	noop := func([]byte) error { return nil }
	cases := []struct {
		name, op string
		call     func(p *Pool, oid OID) error
	}{
		{"View n=max", "view", func(p *Pool, oid OID) error {
			_, err := p.View(oid, max)
			return err
		}},
		{"View end wraps to 8", "view", func(p *Pool, oid OID) error {
			_, err := p.View(oid, max-oid.Off+9)
			return err
		}},
		{"Persist n=max", "persist", func(p *Pool, oid OID) error { return p.Persist(oid, max) }},
		{"Update off=max", "tx-add", func(p *Pool, oid OID) error { return p.Update(oid, max, 8, noop) }},
		{"Update n=max", "tx-add", func(p *Pool, oid OID) error { return p.Update(oid, 8, max, noop) }},
		{"AddRange off=max", "tx-add", func(p *Pool, oid OID) error {
			tx, err := p.Begin()
			if err != nil {
				return err
			}
			defer tx.Abort()
			return tx.AddRange(oid, max, 8)
		}},
		{"AddRange n=max", "tx-add", func(p *Pool, oid OID) error {
			tx, err := p.Begin()
			if err != nil {
				return err
			}
			defer tx.Abort()
			return tx.AddRange(oid, 0, max)
		}},
		{"GetUint64 off=max-3", "view", func(p *Pool, oid OID) error {
			_, err := p.GetUint64(oid, max-3)
			return err
		}},
		{"Float64s n=2^61+1", "view", func(p *Pool, oid OID) error {
			_, err := p.Float64s(oid, 1<<61+1)
			return err
		}},
		{"AllocFloat64s n=2^61+1", "alloc", func(p *Pool, _ OID) error {
			_, _, err := p.AllocFloat64s(1<<61 + 1)
			return err
		}},
		{"PersistFloat64s lo=2^61", "persist", func(p *Pool, oid OID) error {
			return p.PersistFloat64s(oid, 1<<61, 1<<61+1)
		}},
		{"Alloc max-63", "alloc", func(p *Pool, _ OID) error {
			_, err := p.Alloc(max - 63)
			return err
		}},
		{"Alloc max", "alloc", func(p *Pool, _ OID) error {
			_, err := p.Alloc(max)
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, _ := createPool(t)
			oid, err := p.Alloc(64)
			if err != nil {
				t.Fatal(err)
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked: %v", r)
					}
				}()
				err = c.call(p, oid)
			}()
			var pe *PoolError
			if !errors.As(err, &pe) || pe.Op != c.op {
				t.Fatalf("err = %v, want a PoolError from %s", err, c.op)
			}
			// The pool is intact: no lane leaked, nothing allocated.
			if err := p.Update(oid, 0, 8, noop); err != nil {
				t.Fatal(err)
			}
			if got := p.Stats().Allocs.Load(); got != 1 {
				t.Errorf("Allocs = %d, want 1", got)
			}
		})
	}
}
