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

// TestMLDRawExtents covers the raw extent interface the fabric manager
// drives: construction, alloc, over-capacity refusal, release with
// coalescing, double release, and the Remaining() invariant across a
// mixed sequence.
func TestMLDRawExtents(t *testing.T) {
	if _, err := NewMLD("x", nil); err == nil {
		t.Error("nil media accepted")
	}
	mld, err := NewMLD("mld0", testMedia(t, "pool")) // 16 MiB
	if err != nil {
		t.Fatal(err)
	}
	if mld.Name() != "mld0" {
		t.Error("name")
	}
	initial := mld.Remaining()
	if initial != 16*units.MiB {
		t.Fatalf("initial remaining = %v, want media capacity", initial)
	}
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
	if got, want := mld.Remaining(), initial-8*units.MiB; got != want {
		t.Errorf("remaining = %v, want %v", got, want)
	}
	if err := mld.ReleaseExtent(a); err != nil {
		t.Fatal(err)
	}
	if err := mld.ReleaseExtent(a); err == nil {
		t.Error("double extent release accepted")
	}
	if err := mld.ReleaseExtent(b); err != nil {
		t.Fatal(err)
	}
	if mld.Remaining() != initial {
		t.Errorf("remaining = %v after full release, want %v", mld.Remaining(), initial)
	}
	// Released extents coalesce: the whole pool is one extent again.
	if x, err := mld.AllocExtent(initial); err != nil || x.Base != 0 {
		t.Errorf("whole-pool extent after release = %+v, %v", x, err)
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

func TestPooledDevicesThroughSwitchEndToEnd(t *testing.T) {
	// Two hosts, one switch, two Type-3 endpoints: each host enumerates
	// the endpoint its vPPB is bound to and reaches only that media.
	devA, devB := testType3(t), testType3(t)
	sw := NewSwitch("sw0")
	if err := sw.AddDownstream("d0", devA); err != nil {
		t.Fatal(err)
	}
	if err := sw.AddDownstream("d1", devB); err != nil {
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
	// Isolation: each endpoint's window starts with its own host's data.
	for host, dev := range map[string]*Type3Device{"hostA": devA, "hostB": devB} {
		resp := dev.HandleMem(MemReq{Opcode: OpMemRd, Addr: DefaultCXLWindowBase})
		if got := string(resp.Data[:5]); got != host {
			t.Errorf("%s window begins %q, want its own data", host, got)
		}
	}
}

// extentEndpoint reserves a size-byte extent of the MLD and builds a
// Type-3 endpoint whose one decoder maps HPA [0, size) onto it: a
// logical device of the MLD, as a host sees it.
func extentEndpoint(t *testing.T, mld *MLD, name string, size units.Size) (Extent, *Type3Device) {
	t.Helper()
	ext, err := mld.AllocExtent(size)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := NewType3(name, CXLVendorID, 0x0D93, mld.Media())
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.ProgramDecoder(&HDMDecoder{Base: 0, Size: ext.Size, DPABase: ext.Base}); err != nil {
		t.Fatal(err)
	}
	return ext, dev
}

// TestLogicalDeviceBursts checks CXL 2.0 pooling composes with the
// burst path: an endpoint mapped onto one MLD extent services
// multi-line bursts as one media span access each, at the extent's
// DPA, and refuses a burst running past the extent's end so the
// neighbouring extent stays untouched.
func TestLogicalDeviceBursts(t *testing.T) {
	mld, err := NewMLD("pool-mld", testMedia(t, "mld-media"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mld.AllocExtent(units.MiB); err != nil { // another host's
		t.Fatal(err)
	}
	ext, ld := extentEndpoint(t, mld, "ld0", units.MiB)
	next, err := mld.AllocExtent(units.MiB)
	if err != nil {
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
		t.Error("burst through MLD extent mismatched")
	}
	// One span write + one span read against the shared media.
	media := mld.Media()
	reads, writes, br, bw := media.Stats().Snapshot()
	if reads != 1 || writes != 1 {
		t.Errorf("media saw %d reads %d writes, want 1/1", reads, writes)
	}
	if br != int64(len(in)) || bw != int64(len(in)) {
		t.Errorf("media moved %d/%d bytes, want %d", br, bw, len(in))
	}
	if err := media.ReadAt(out, int64(ext.Base+128)); err != nil || !bytes.Equal(in, out) {
		t.Errorf("burst did not land at the extent's DPA %#x: %v", ext.Base+128, err)
	}
	// A burst escaping the extent is refused.
	if err := rp.WriteBurst(1<<20-uint64(LineSize), in); err == nil {
		t.Error("burst past extent end accepted")
	}
	if err := media.ReadAt(out, int64(next.Base)); err != nil || !bytes.Equal(out, make([]byte, len(out))) {
		t.Errorf("neighbouring extent %v touched: %v", next, err)
	}
}
