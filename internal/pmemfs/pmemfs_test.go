package pmemfs

import (
	"bytes"
	"math"
	"testing"

	"cxlpmem/internal/cxl"
	"cxlpmem/internal/fpga"
	"cxlpmem/internal/memdev"
	"cxlpmem/internal/units"
)

func dramMount(t *testing.T) *Mount {
	t.Helper()
	dev, err := memdev.NewDRAM(memdev.DRAMConfig{
		Name: "ddr5", Rate: 4800, Channels: 1, CapacityPerChannel: 16 * units.MiB,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMount("/mnt/pmem0", dev, dev.Capacity().Bytes(), false)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMountCreateOpenReadWrite(t *testing.T) {
	m := dramMount(t)
	f, err := m.Create("pool.obj", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 1<<20 || f.Name() != "pool.obj" {
		t.Error("file attributes")
	}
	if f.Path() != "/mnt/pmem0/pool.obj" {
		t.Errorf("path = %q", f.Path())
	}
	payload := []byte("pmem pool bytes")
	if err := f.WriteAt(payload, 512); err != nil {
		t.Fatal(err)
	}
	f2, err := m.Open("pool.obj")
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(payload))
	if err := f2.ReadAt(out, 512); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, out) {
		t.Error("round trip mismatch")
	}
}

func TestMountValidation(t *testing.T) {
	if _, err := NewMount("/mnt/x", nil, 100, false); err == nil {
		t.Error("nil accessor accepted")
	}
	dev, _ := memdev.NewDRAM(memdev.DRAMConfig{Name: "d", Rate: 2666, Channels: 1, CapacityPerChannel: units.MiB})
	if _, err := NewMount("/mnt/x", dev, 0, false); err == nil {
		t.Error("zero size accepted")
	}
	m := dramMount(t)
	if _, err := m.Create("f", 0); err == nil {
		t.Error("zero-size file accepted")
	}
	if _, err := m.Create("f", 1024); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("f", 1024); err == nil {
		t.Error("duplicate file accepted")
	}
	if _, err := m.Open("missing"); err == nil {
		t.Error("open of missing file accepted")
	}
	if _, err := m.Create("huge", m.Size()*2); err == nil {
		t.Error("oversized file accepted")
	}
}

func TestFileBoundsChecked(t *testing.T) {
	m := dramMount(t)
	f, err := m.Create("f", 4096)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		off  int64
		n    int
	}{
		{"past file end", 4092, 8},
		{"negative offset", -1, 8},
		{"end wrapping int64", math.MaxInt64 - 10, 20},
	} {
		if err := f.WriteAt(make([]byte, c.n), c.off); err == nil {
			t.Errorf("write %s accepted", c.what)
		}
		if err := f.ReadAt(make([]byte, c.n), c.off); err == nil {
			t.Errorf("read %s accepted", c.what)
		}
	}
	// Two files never alias.
	g, err := m.Create("g", 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAt([]byte{0xAB}, 0); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 1)
	if err := g.ReadAt(out, 0); err != nil {
		t.Fatal(err)
	}
	if out[0] == 0xAB {
		t.Error("files alias the same extent")
	}
}

func TestRemoveAndList(t *testing.T) {
	m := dramMount(t)
	if _, err := m.Create("b", 1024); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("a", 1024); err != nil {
		t.Fatal(err)
	}
	got := m.List()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("List = %v", got)
	}
	if err := m.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("a"); err == nil {
		t.Error("double remove accepted")
	}
	if got := m.List(); len(got) != 1 || got[0] != "b" {
		t.Errorf("List after remove = %v", got)
	}
	if m.Free() <= 0 {
		t.Error("Free() should be positive")
	}
}

func TestCXLBackedMountRoutesThroughProtocol(t *testing.T) {
	// A /mnt/pmem2 mount whose accessor is the CXL root port: every
	// file access becomes CXL.mem flits against the FPGA HDM.
	card, err := fpga.New(fpga.Options{ChannelCapacity: 8 * units.MiB})
	if err != nil {
		t.Fatal(err)
	}
	rp := cxl.NewRootPort("rp0", card.Link())
	if err := rp.Attach(card); err != nil {
		t.Fatal(err)
	}
	h, err := cxl.Enumerate(0, rp)
	if err != nil {
		t.Fatal(err)
	}
	w := h.Windows[0]
	m, err := NewMount("/mnt/pmem2", &windowAccessor{rp: rp, base: int64(w.Base)}, int64(w.Size), true)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Persistent() {
		t.Error("CXL mount should be persistent")
	}
	f, err := m.Create("pool.obj", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("through the CXL fabric")
	if err := f.WriteAt(payload, 100); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(payload))
	if err := f.ReadAt(out, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, payload) {
		t.Error("round trip mismatch")
	}
	// The endpoint really saw CXL.mem transactions.
	if card.Stats().Writes.Load() == 0 && card.Stats().PartialWrites.Load() == 0 {
		t.Error("no CXL.mem writes recorded at the endpoint")
	}
	if card.Stats().Reads.Load() == 0 {
		t.Error("no CXL.mem reads recorded at the endpoint")
	}
}

// windowAccessor adapts a root port + HPA window to the Accessor shape.
// The production version lives in internal/core; this local copy keeps
// the package test self-contained.
type windowAccessor struct {
	rp   *cxl.RootPort
	base int64
}

func (a *windowAccessor) ReadAt(p []byte, off int64) error  { return a.rp.ReadAt(p, a.base+off) }
func (a *windowAccessor) WriteAt(p []byte, off int64) error { return a.rp.WriteAt(p, a.base+off) }

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	m := dramMount(t)
	if err := r.Add(m); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(m); err == nil {
		t.Error("duplicate mount accepted")
	}
	got, err := r.Mount("/mnt/pmem0")
	if err != nil || got != m {
		t.Errorf("Mount = %v, %v", got, err)
	}
	if _, err := r.Mount("/mnt/none"); err == nil {
		t.Error("missing mount accepted")
	}
	if l := r.Mounts(); len(l) != 1 || l[0] != "/mnt/pmem0" {
		t.Errorf("Mounts = %v", l)
	}
}

func TestExtentAlignment(t *testing.T) {
	m := dramMount(t)
	if _, err := m.Create("a", 100); err != nil {
		t.Fatal(err)
	}
	b, err := m.Create("b", 100)
	if err != nil {
		t.Fatal(err)
	}
	if b.base%4096 != 0 {
		t.Errorf("second extent base %d not 4KiB aligned", b.base)
	}
}
