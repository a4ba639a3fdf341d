package cxl

import (
	"bytes"
	"testing"

	"cxlpmem/internal/interconnect"
	"cxlpmem/internal/units"
)

func TestSwitchBindUnbind(t *testing.T) {
	sw := NewSwitch("sw0")
	if sw.Name() != "sw0" {
		t.Error("name")
	}
	dev := testType3(t)
	if err := sw.AddDownstream("dsp0", dev); err != nil {
		t.Fatal(err)
	}
	if err := sw.AddDownstream("dsp0", dev); err == nil {
		t.Error("duplicate downstream accepted")
	}
	if err := sw.AddDownstream("dsp1", nil); err == nil {
		t.Error("nil endpoint accepted")
	}
	if err := sw.Bind("host0", "dsp0"); err != nil {
		t.Fatal(err)
	}
	ep, ok := sw.EndpointFor("host0")
	if !ok || ep != Endpoint(dev) {
		t.Error("EndpointFor after bind")
	}
	// Exclusive binding.
	if err := sw.Bind("host1", "dsp0"); err == nil {
		t.Error("double-bound one downstream device")
	}
	if err := sw.Bind("host0", "dsp0"); err == nil {
		t.Error("rebound an occupied vPPB")
	}
	if err := sw.Bind("host1", "nope"); err == nil {
		t.Error("bound to missing downstream")
	}
	if got := sw.Bindings(); len(got) != 1 || got["host0"] != "dsp0" {
		t.Errorf("bindings = %v", got)
	}
	if err := sw.Unbind("host0"); err != nil {
		t.Fatal(err)
	}
	if err := sw.Unbind("host0"); err == nil {
		t.Error("double unbind accepted")
	}
	if _, ok := sw.EndpointFor("host0"); ok {
		t.Error("endpoint visible after unbind")
	}
	// After unbind, another host can claim the device (pooling).
	if err := sw.Bind("host1", "dsp0"); err != nil {
		t.Errorf("rebind after release failed: %v", err)
	}
}

func TestMLDPartitioning(t *testing.T) {
	media := testMedia(t, "pool") // 16 MiB
	mld, err := NewMLD("mld0", media)
	if err != nil {
		t.Fatal(err)
	}
	if mld.Name() != "mld0" {
		t.Error("name")
	}
	if _, err := NewMLD("x", nil); err == nil {
		t.Error("nil media accepted")
	}
	initial := mld.Remaining()
	if initial != 16*units.MiB {
		t.Fatalf("initial remaining = %v, want media capacity", initial)
	}
	// Remaining() invariant: failed carves reserve nothing.
	if _, err := mld.Carve("ld-huge", 32*units.MiB); err == nil {
		t.Error("carved past capacity")
	}
	if mld.Remaining() != initial {
		t.Errorf("failed carve leaked: remaining = %v, want %v", mld.Remaining(), initial)
	}
	ldA, err := mld.Carve("ld-hostA", 8*units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if mld.Remaining() != initial-8*units.MiB {
		t.Errorf("remaining = %v after one carve", mld.Remaining())
	}
	ldB, err := mld.Carve("ld-hostB", 8*units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if mld.Remaining() != 0 {
		t.Errorf("remaining = %v, want 0", mld.Remaining())
	}
	if _, err := mld.Carve("ld-c", units.MiB); err == nil {
		t.Error("carved past capacity")
	}
	if _, err := mld.Carve("ld-d", 33); err == nil {
		t.Error("accepted unaligned partition size")
	}
	if mld.Remaining() != 0 {
		t.Errorf("failed carves leaked: remaining = %v, want 0", mld.Remaining())
	}
	baseA, sizeA := ldA.Partition()
	baseB, _ := ldB.Partition()
	if baseA != 0 || sizeA != uint64(8*units.MiB) || baseB != uint64(8*units.MiB) {
		t.Errorf("partitions: A=%d+%d B=%d", baseA, sizeA, baseB)
	}
	// Release/re-carve: returning both partitions restores the full
	// pool (coalesced), and the bytes are immediately re-carvable.
	if err := mld.Release(ldA); err != nil {
		t.Fatal(err)
	}
	if err := mld.Release(ldA); err == nil {
		t.Error("double release accepted")
	}
	if mld.Remaining() != 8*units.MiB {
		t.Errorf("remaining = %v after releasing A", mld.Remaining())
	}
	if err := mld.Release(ldB); err != nil {
		t.Fatal(err)
	}
	if mld.Remaining() != initial {
		t.Errorf("remaining = %v after full release, want %v", mld.Remaining(), initial)
	}
	if free := mld.FreeExtents(); len(free) != 1 {
		t.Errorf("free list = %v, want one coalesced extent", free)
	}
	ldC, err := mld.Carve("ld-recarve", 16*units.MiB)
	if err != nil {
		t.Fatalf("re-carve of released capacity failed: %v", err)
	}
	if base, size := ldC.Partition(); base != 0 || size != uint64(16*units.MiB) {
		t.Errorf("re-carve at [%#x+%#x), want the full pool", base, size)
	}
}

// TestMLDReleasedPartitionRefusesAccess checks the torn-down data
// path: a released logical device fails CXL.mem transactions instead
// of touching pool bytes that may already belong to someone else.
func TestMLDReleasedPartitionRefusesAccess(t *testing.T) {
	mld, err := NewMLD("mld0", testMedia(t, "pool"))
	if err != nil {
		t.Fatal(err)
	}
	ld, err := mld.Carve("ld0", units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if err := ld.ProgramDecoder(&HDMDecoder{Base: 0, Size: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	var line [LineSize]byte
	if resp := ld.HandleMem(MemReq{Opcode: OpMemWr, Addr: 0, Data: line}); resp.Opcode != RespCmp {
		t.Fatal("write before release failed")
	}
	if err := mld.Release(ld); err != nil {
		t.Fatal(err)
	}
	if resp := ld.HandleMem(MemReq{Opcode: OpMemRd, Addr: 0}); resp.Opcode != RespErr {
		t.Error("read through released partition succeeded")
	}
	if resp := ld.HandleMem(MemReq{Opcode: OpMemWr, Addr: 0, Data: line}); resp.Opcode != RespErr {
		t.Error("write through released partition succeeded")
	}
}

// TestMLDRawExtents covers the raw extent interface the fabric manager
// drives: alloc, fragmented AllocAny, release-with-coalescing, double
// release, and the Remaining() invariant across a mixed sequence.
func TestMLDRawExtents(t *testing.T) {
	mld, err := NewMLD("mld0", testMedia(t, "pool")) // 16 MiB
	if err != nil {
		t.Fatal(err)
	}
	initial := mld.Remaining()
	a, err := mld.AllocExtent(4 * units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mld.AllocExtent(4 * units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mld.AllocExtent(16 * units.MiB); err == nil {
		t.Error("over-capacity extent accepted")
	}
	if err := mld.ReleaseExtent(a); err != nil {
		t.Fatal(err)
	}
	if err := mld.ReleaseExtent(a); err == nil {
		t.Error("double extent release accepted")
	}
	// A partition and a raw extent draw from the same free space.
	ld, err := mld.Carve("ld0", 8*units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mld.Remaining(), initial-12*units.MiB; got != want {
		t.Errorf("remaining = %v, want %v", got, want)
	}
	if err := mld.Release(ld); err != nil {
		t.Fatal(err)
	}
	if err := mld.ReleaseExtent(b); err != nil {
		t.Fatal(err)
	}
	if mld.Remaining() != initial {
		t.Errorf("remaining = %v after full release, want %v", mld.Remaining(), initial)
	}
}

// TestSwitchRebind checks the control-plane rebind contract: atomic
// move, no intermediate unbound state visible, rollback on a bad
// target.
func TestSwitchRebind(t *testing.T) {
	sw := NewSwitch("sw0")
	devA := testType3(t)
	devB := testType3(t)
	if err := sw.AddDownstream("d0", devA); err != nil {
		t.Fatal(err)
	}
	if err := sw.AddDownstream("d1", devB); err != nil {
		t.Fatal(err)
	}
	if err := sw.Rebind("host0", "d1"); err == nil {
		t.Error("rebound an unbound vPPB")
	}
	if err := sw.Bind("host0", "d0"); err != nil {
		t.Fatal(err)
	}
	if err := sw.Rebind("host0", "d1"); err != nil {
		t.Fatal(err)
	}
	if ep, ok := sw.EndpointFor("host0"); !ok || ep != Endpoint(devB) {
		t.Error("rebind did not route to the new endpoint")
	}
	// d0 is free again.
	if err := sw.Bind("host1", "d0"); err != nil {
		t.Errorf("old downstream not released by rebind: %v", err)
	}
	// A failed rebind (occupied target) leaves the old binding intact.
	if err := sw.Rebind("host0", "d0"); err == nil {
		t.Error("rebound onto an occupied downstream")
	}
	if ep, ok := sw.EndpointFor("host0"); !ok || ep != Endpoint(devB) {
		t.Error("failed rebind lost the original binding")
	}
	// Rebind to the current port is a no-op.
	if err := sw.Rebind("host0", "d1"); err != nil {
		t.Errorf("self-rebind: %v", err)
	}
	// RemoveDownstream refuses bound ports, accepts free ones.
	if err := sw.RemoveDownstream("d1"); err == nil {
		t.Error("removed a bound downstream")
	}
	if err := sw.Unbind("host1"); err != nil {
		t.Fatal(err)
	}
	if err := sw.RemoveDownstream("d0"); err != nil {
		t.Errorf("remove free downstream: %v", err)
	}
}

// TestSwitchBindShared checks the shared-FAM binding rules: a shared
// bind needs an existing downstream, a free vPPB and a downstream no
// vPPB holds exclusively; many vPPBs then reach one endpoint, the
// downstream refuses exclusive binds while shared, and the last unbind
// makes it exclusive-bindable again.
func TestSwitchBindShared(t *testing.T) {
	sw := NewSwitch("sw0")
	fam, other := testType3(t), testType3(t)
	if err := sw.AddDownstream("gfam", fam); err != nil {
		t.Fatal(err)
	}
	if err := sw.AddDownstream("d1", other); err != nil {
		t.Fatal(err)
	}
	if err := sw.BindShared("host0", "nope"); err == nil {
		t.Error("shared bind to a missing downstream accepted")
	}
	if err := sw.Bind("host0", "d1"); err != nil {
		t.Fatal(err)
	}
	if err := sw.BindShared("host0", "gfam"); err == nil {
		t.Error("shared bind of an already-bound vPPB accepted")
	}
	if err := sw.BindShared("host1", "d1"); err == nil {
		t.Error("shared bind onto an exclusively bound downstream accepted")
	}
	for _, vppb := range []string{"host1", "host2"} {
		if err := sw.BindShared(vppb, "gfam"); err != nil {
			t.Fatalf("shared bind %s: %v", vppb, err)
		}
		if ep, ok := sw.EndpointFor(vppb); !ok || ep != Endpoint(fam) {
			t.Errorf("%s does not reach the shared endpoint", vppb)
		}
	}
	if err := sw.Bind("host3", "gfam"); err == nil {
		t.Error("exclusive bind onto a shared downstream accepted")
	}
	for _, vppb := range []string{"host1", "host2"} {
		if err := sw.Unbind(vppb); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Bind("host3", "gfam"); err != nil {
		t.Errorf("exclusive bind after the last shared unbind: %v", err)
	}
}

// TestSwitchSnoopRefusalsAndFaults checks the back-invalidate channel's
// failure paths: RegisterSnooper refuses a nil snooper and an unbound
// vPPB, a snoop to a vPPB with no snooper fails, and a snoop or its
// response corrupted in flight fails at the receiver's CRC check
// instead of reaching the directory as a wrong answer.
func TestSwitchSnoopRefusalsAndFaults(t *testing.T) {
	sw := NewSwitch("sw0")
	if err := sw.AddDownstream("gfam", testType3(t)); err != nil {
		t.Fatal(err)
	}
	for _, vppb := range []string{"host0", "host1"} {
		if err := sw.BindShared(vppb, "gfam"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sw.Snoop("host0", BISnp{Tag: 1}); err == nil {
		t.Error("snoop with no snooper registered anywhere succeeded")
	}
	host := snooperFunc(func(s BISnp) BIRsp { return BIRsp{Opcode: RspIHit} })
	if err := sw.RegisterSnooper("host0", nil); err == nil {
		t.Error("nil snooper accepted")
	}
	if err := sw.RegisterSnooper("host9", host); err == nil {
		t.Error("snooper on an unbound vPPB accepted")
	}
	if err := sw.RegisterSnooper("host0", host); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Snoop("host1", BISnp{Tag: 2}); err == nil {
		t.Error("snoop to a vPPB with no snooper succeeded")
	}
	for _, kind := range []uint8{flitKindBISnp, flitKindBIRsp} {
		sw.SetSnoopFault(func(f Flit) Flit {
			if f.PeekKind() == kind {
				f.FlipBit(70) // an address bit: only the CRC check can tell
			}
			return f
		})
		if _, err := sw.Snoop("host0", BISnp{Opcode: SnpInv, Tag: 3, Addr: 4096}); err == nil {
			t.Errorf("snoop with a corrupted kind-%d flit succeeded", kind)
		}
	}
	sw.SetSnoopFault(nil)
	rsp, err := sw.Snoop("host0", BISnp{Opcode: SnpInv, Tag: 4, Addr: 4096})
	if err != nil || rsp.Opcode != RspIHit || rsp.Tag != 4 {
		t.Errorf("snoop after the fault was removed = %+v, %v", rsp, err)
	}
}

func TestMLDPartitionsAreIsolated(t *testing.T) {
	media := testMedia(t, "pool")
	mld, err := NewMLD("mld0", media)
	if err != nil {
		t.Fatal(err)
	}
	ldA, err := mld.Carve("ldA", 8*units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	ldB, err := mld.Carve("ldB", 8*units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if err := ldA.ProgramDecoder(&HDMDecoder{Base: 0x1000_0000, Size: 8 << 20}); err != nil {
		t.Fatal(err)
	}
	if err := ldB.ProgramDecoder(&HDMDecoder{Base: 0x1000_0000, Size: 8 << 20}); err != nil {
		t.Fatal(err)
	}
	var line [LineSize]byte
	line[0] = 0xA1
	if resp := ldA.HandleMem(MemReq{Opcode: OpMemWr, Addr: 0x1000_0000, Data: line}); resp.Opcode != RespCmp {
		t.Fatal("write to A failed")
	}
	// Same HPA through B must see B's partition (zeros), not A's data.
	resp := ldB.HandleMem(MemReq{Opcode: OpMemRd, Addr: 0x1000_0000})
	if resp.Opcode != RespMemData {
		t.Fatal("read from B failed")
	}
	if resp.Data[0] != 0 {
		t.Error("partition isolation violated: B sees A's write")
	}
	// And the same HPA through A still sees the data.
	resp = ldA.HandleMem(MemReq{Opcode: OpMemRd, Addr: 0x1000_0000})
	if resp.Data[0] != 0xA1 {
		t.Error("A lost its own write")
	}
}

func TestPooledDevicesThroughSwitchEndToEnd(t *testing.T) {
	// Two hosts, one switch, one MLD carved in two: each host
	// enumerates its own logical device and gets a disjoint window.
	media := testMedia(t, "pool")
	mld, err := NewMLD("mld0", media)
	if err != nil {
		t.Fatal(err)
	}
	ldA, err := mld.Carve("ldA", 8*units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	ldB, err := mld.Carve("ldB", 8*units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSwitch("sw0")
	if err := sw.AddDownstream("d0", ldA); err != nil {
		t.Fatal(err)
	}
	if err := sw.AddDownstream("d1", ldB); err != nil {
		t.Fatal(err)
	}
	if err := sw.Bind("hostA", "d0"); err != nil {
		t.Fatal(err)
	}
	if err := sw.Bind("hostB", "d1"); err != nil {
		t.Fatal(err)
	}

	for _, host := range []string{"hostA", "hostB"} {
		ep, ok := sw.EndpointFor(host)
		if !ok {
			t.Fatalf("%s: no endpoint", host)
		}
		link, _ := interconnect.NewPCIe("l-"+host, interconnect.KindPCIe5, 16, 0)
		rp := NewRootPort("rp-"+host, link)
		if err := rp.Attach(ep); err != nil {
			t.Fatal(err)
		}
		h, err := Enumerate(0, rp)
		if err != nil {
			t.Fatal(err)
		}
		if len(h.Windows) != 1 {
			t.Fatalf("%s: windows = %d", host, len(h.Windows))
		}
		payload := []byte(host + " private data")
		if err := rp.WriteAt(payload, int64(h.Windows[0].Base)); err != nil {
			t.Fatal(err)
		}
		out := make([]byte, len(payload))
		if err := rp.ReadAt(out, int64(h.Windows[0].Base)); err != nil {
			t.Fatal(err)
		}
		if string(out) != string(payload) {
			t.Errorf("%s: round trip = %q", host, out)
		}
	}
	// Isolation: hostB's window starts with its own data, not hostA's.
	epB, _ := sw.EndpointFor("hostB")
	resp := epB.HandleMem(MemReq{Opcode: OpMemRd, Addr: DefaultCXLWindowBase})
	if got := string(resp.Data[:5]); got != "hostB" {
		t.Errorf("hostB window begins %q, want its own data", got)
	}
}

// TestLogicalDeviceBursts checks CXL 2.0 pooling composes with the
// burst path: a carved MLD partition services multi-line bursts through
// its partition view — one media span access per burst, confined to the
// partition.
func TestLogicalDeviceBursts(t *testing.T) {
	mld, err := NewMLD("pool-mld", testMedia(t, "mld-media"))
	if err != nil {
		t.Fatal(err)
	}
	ld, err := mld.Carve("ld0", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := ld.ProgramDecoder(&HDMDecoder{Base: 0, Size: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	rp := trainedPort(t, ld)
	in := make([]byte, 6*LineSize)
	for i := range in {
		in[i] = byte(i + 9)
	}
	if err := rp.WriteBurst(128, in); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(in))
	if err := rp.ReadBurst(128, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in, out) {
		t.Error("burst through MLD partition mismatched")
	}
	// One span write + one span read against the partition view.
	reads, writes, br, bw := ld.view.Stats().Snapshot()
	if reads != 1 || writes != 1 {
		t.Errorf("partition view saw %d reads %d writes, want 1/1", reads, writes)
	}
	if br != int64(len(in)) || bw != int64(len(in)) {
		t.Errorf("partition view moved %d/%d bytes, want %d", br, bw, len(in))
	}
	// A burst escaping the partition is refused.
	if err := rp.WriteBurst(1<<20-uint64(LineSize), in); err == nil {
		t.Error("burst past partition end accepted")
	}
}
