package fabric

import (
	"bytes"
	"sync"
	"testing"

	"cxlpmem/internal/cxl"
	"cxlpmem/internal/interconnect"
	"cxlpmem/internal/memdev"
	"cxlpmem/internal/units"
)

// testFabric builds a manager over a 16 MiB pool with a 64 KiB granule.
func testFabric(t *testing.T) *Manager {
	t.Helper()
	media, err := memdev.NewDRAM(memdev.DRAMConfig{
		Name: "pool-dram", Rate: 3200, Channels: 1,
		CapacityPerChannel: 16 * units.MiB,
		BatteryBacked:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	mld, err := cxl.NewMLD("pool", media)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cxl.NewSwitch("fab-sw"), mld, Config{Granule: 64 * units.KiB})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// hostFor trains a root port against a tenant's endpoint through the
// switch and enumerates its window — the host side of the fabric.
func hostFor(t *testing.T, m *Manager, tenant string) (*cxl.RootPort, cxl.MemWindow) {
	t.Helper()
	ep, ok := m.sw.EndpointFor(tenant)
	if !ok {
		t.Fatalf("no endpoint for vPPB %s", tenant)
	}
	link, err := interconnect.NewPCIe("pcie-"+tenant, interconnect.KindPCIe5, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	rp := cxl.NewRootPort("rp-"+tenant, link)
	if err := rp.Attach(ep); err != nil {
		t.Fatal(err)
	}
	h, err := cxl.Enumerate(0, rp)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Windows) != 1 {
		t.Fatalf("enumerated %d windows", len(h.Windows))
	}
	return rp, h.Windows[0]
}

// accept answers every queued add-capacity event through the mailbox.
func accept(t *testing.T, tn *Tenant) []ExtentInfo {
	t.Helper()
	var out []ExtentInfo
	for _, ev := range tn.Events() {
		if ev.Type != EventAddCapacity {
			continue
		}
		_, status := tn.Mailbox().Execute(cxl.OpAddDCDResponse, cxl.EncodeDCDResponse(ev.Extent.DCD(), true))
		if status != cxl.MboxSuccess {
			t.Fatalf("accept %v: %v", ev.Extent, status)
		}
		ev.Extent.State = ExtentActive
		out = append(out, ev.Extent)
	}
	return out
}

// release returns extents through the mailbox.
func release(t *testing.T, tn *Tenant, exts []ExtentInfo) {
	t.Helper()
	for _, e := range exts {
		_, status := tn.Mailbox().Execute(cxl.OpReleaseDCD, cxl.EncodeDCDExtent(e.DCD()))
		if status != cxl.MboxSuccess {
			t.Fatalf("release %v: %v", e, status)
		}
	}
}

// TestGrantUseReleaseRegrant is the subsystem's acceptance path: a
// tenant is granted capacity, uses it through the real root-port data
// path, releases it, and the pool returns to its initial state; the
// same bytes are then immediately re-grantable.
func TestGrantUseReleaseRegrant(t *testing.T) {
	m := testFabric(t)
	initial := m.Remaining()
	tn, err := m.AddTenant("alice", 4*units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	rp, w := hostFor(t, m, "alice")
	if w.Size != uint64(4*units.MiB) {
		t.Fatalf("window size %#x, want the quota", w.Size)
	}

	// Nothing granted yet: the window exists but has no backing.
	buf := make([]byte, 4096)
	if err := rp.ReadBurst(w.Base, buf); err == nil {
		t.Fatal("read from ungranted capacity succeeded")
	}

	exts, err := m.Grant("alice", units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if m.Remaining() != initial-units.MiB {
		t.Errorf("remaining = %v after grant", m.Remaining())
	}
	// Pending ≠ usable: the host has not accepted yet.
	if err := rp.ReadBurst(w.Base+exts[0].DPA, buf); err == nil {
		t.Fatal("read from pending extent succeeded")
	}
	active := accept(t, tn)
	if len(active) != len(exts) {
		t.Fatalf("accepted %d extents, granted %d", len(active), len(exts))
	}
	if tn.Active() != units.MiB {
		t.Errorf("active = %v, want 1 MiB", tn.Active())
	}

	// Use: write and read back through the full port/flit/switch path.
	// Each 4 KiB burst reaches the tenant media as one access.
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	r0, w0, br0, bw0 := tn.Device().Stats().Snapshot()
	addr := w.Base + active[0].DPA
	if err := rp.WriteBurst(addr, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(buf))
	if err := rp.ReadBurst(addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, got) {
		t.Error("data round trip through granted extent mismatched")
	}
	r1, w1, br1, bw1 := tn.Device().Stats().Snapshot()
	if r1-r0 != 1 || w1-w0 != 1 || br1-br0 != int64(len(buf)) || bw1-bw0 != int64(len(buf)) {
		t.Errorf("a burst each way reached the tenant media as %d reads (%d B) and %d writes (%d B), want 1 of %d B each",
			r1-r0, br1-br0, w1-w0, bw1-bw0, len(buf))
	}
	// A burst running past the quota's end is refused.
	if err := rp.WriteBurst(w.Base+w.Size-uint64(cxl.LineSize), buf); err == nil {
		t.Error("burst past the quota's end accepted")
	}

	// Release everything: no leaked bytes anywhere.
	release(t, tn, active)
	if m.Remaining() != initial {
		t.Errorf("remaining = %v after release, want %v", m.Remaining(), initial)
	}
	if tn.Active() != 0 {
		t.Errorf("active = %v after release", tn.Active())
	}
	if err := rp.ReadBurst(addr, got); err == nil {
		t.Error("read from released extent succeeded")
	}

	// Re-grant: the same capacity comes back — scrubbed.
	exts2, err := m.Grant("alice", units.MiB)
	if err != nil {
		t.Fatalf("re-grant failed: %v", err)
	}
	active2 := accept(t, tn)
	_ = exts2
	if err := rp.ReadBurst(w.Base+active2[0].DPA, got); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("re-granted extent leaks previous contents at %d: %#x", i, b)
		}
	}
}

// TestPoliteReleaseRoundTrip drives the cooperative shrink: the fabric
// asks for the most recent active extents covering the request, a host
// agent answers exactly those events through the mailbox while leaving
// unrelated events queued, and only the answer frees the capacity.
func TestPoliteReleaseRoundTrip(t *testing.T) {
	m := testFabric(t)
	if _, err := m.RequestRelease("nobody", units.MiB); err == nil {
		t.Error("release request for an unknown tenant accepted")
	}
	tn, err := m.AddTenant("bob", 4*units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	var exts []ExtentInfo
	for i := 0; i < 3; i++ {
		if _, err := m.Grant("bob", 64*units.KiB); err != nil {
			t.Fatal(err)
		}
		exts = append(exts, accept(t, tn)...)
	}
	if _, err := m.Grant("bob", 64*units.KiB); err != nil { // left pending
		t.Fatal(err)
	}
	if _, err := m.RequestRelease("bob", 256*units.KiB); err == nil {
		t.Error("release request beyond the active capacity accepted")
	}
	if n := len(tn.TakeEvents(func(ev Event) bool { return ev.Type == EventReleaseRequest })); n != 0 {
		t.Fatalf("a refused request queued %d release events", n)
	}

	before := m.Remaining()
	asked, err := m.RequestRelease("bob", 100*units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	if len(asked) != 2 || asked[0].Tag != exts[2].Tag || asked[1].Tag != exts[1].Tag {
		t.Fatalf("asked %+v, want the two most recent active extents", asked)
	}
	if tn.Active() != 192*units.KiB || m.Remaining() != before {
		t.Fatal("capacity changed before the host answered")
	}

	// Answer the first request only; the pending grant's offer and the
	// second request stay queued, in order.
	first := tn.TakeEvents(func(ev Event) bool {
		return ev.Type == EventReleaseRequest && ev.Extent.Tag == asked[0].Tag
	})
	if len(first) != 1 {
		t.Fatalf("took %d events for tag %d, want 1", len(first), asked[0].Tag)
	}
	release(t, tn, []ExtentInfo{first[0].Extent})
	if tn.Active() != 128*units.KiB || m.Remaining() != before+64*units.KiB {
		t.Errorf("after one answer: active %v, remaining %v", tn.Active(), m.Remaining())
	}
	rest := tn.Events()
	if len(rest) != 2 || rest[0].Type != EventAddCapacity || rest[1].Type != EventReleaseRequest || rest[1].Extent.Tag != asked[1].Tag {
		t.Fatalf("queue after TakeEvents = %+v, want the pending offer then the second request", rest)
	}
}

// TestForcedReclaimPoisonsAccess checks the unresponsive-tenant path:
// revoked extents poison subsequent access, the capacity is
// immediately re-grantable to another tenant (scrubbed), and the
// revoked tenant's address space clears once it acknowledges.
func TestForcedReclaimPoisonsAccess(t *testing.T) {
	m := testFabric(t)
	initial := m.Remaining()
	bad, err := m.AddTenant("bad", 2*units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	good, err := m.AddTenant("good", 2*units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	rpBad, wBad := hostFor(t, m, "bad")
	rpGood, wGood := hostFor(t, m, "good")

	if _, err := m.Grant("bad", units.MiB); err != nil {
		t.Fatal(err)
	}
	exts := accept(t, bad)
	addr := wBad.Base + exts[0].DPA
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = 0xBD
	}
	if err := rpBad.WriteBurst(addr, buf); err != nil {
		t.Fatal(err)
	}

	revoked, err := m.ForceReclaim("bad")
	if err != nil {
		t.Fatal(err)
	}
	if len(revoked) == 0 {
		t.Fatal("nothing revoked")
	}
	// Poison: bursts and single lines both fail.
	if err := rpBad.ReadBurst(addr, buf); err == nil {
		t.Error("burst read of revoked extent succeeded")
	}
	var line [64]byte
	if err := rpBad.ReadLine(addr, &line); err == nil {
		t.Error("line read of revoked extent succeeded")
	}
	if err := rpBad.WriteBurst(addr, buf); err == nil {
		t.Error("burst write to revoked extent succeeded")
	}
	// The reclaimed pool bytes are free again immediately — only the
	// bad tenant's revoked-but-unacknowledged address range stays
	// occupied, and that is tenant space, not pool space. Re-granting
	// the bytes to the other tenant must not leak the bad tenant's data.
	if m.Remaining() != initial {
		t.Errorf("remaining = %v after reclaim, want %v", m.Remaining(), initial)
	}
	if _, err := m.Grant("good", 2*units.MiB); err != nil {
		t.Fatal(err)
	}
	gexts := accept(t, good)
	got := make([]byte, 4096)
	for _, e := range gexts {
		if err := rpGood.ReadBurst(wGood.Base+e.DPA, got); err != nil {
			t.Fatal(err)
		}
		for i, b := range got {
			if b != 0 {
				t.Fatalf("re-granted extent leaks revoked tenant's data at %d: %#x", i, b)
			}
		}
	}

	// The bad tenant sees forced-reclaim events and acknowledges; its
	// address space clears, the poison tombstone goes away (the range
	// is now unmapped, still unreadable).
	var acks []ExtentInfo
	for _, ev := range bad.Events() {
		if ev.Type == EventForcedReclaim {
			acks = append(acks, ev.Extent)
		}
	}
	if len(acks) != len(revoked) {
		t.Fatalf("got %d reclaim events for %d revoked extents", len(acks), len(revoked))
	}
	release(t, bad, acks)
	left, err := m.Extents("bad")
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("extents after acknowledge: %v", left)
	}
	// The tenant can be granted fresh capacity again.
	if _, err := m.Grant("bad", 64*units.KiB); err != nil {
		t.Fatalf("grant after acknowledged reclaim: %v", err)
	}
	accept(t, bad)
}

// TestGrantRejectAndQuota covers the host rejecting an offer and the
// quota ceiling.
func TestGrantRejectAndQuota(t *testing.T) {
	m := testFabric(t)
	initial := m.Remaining()
	tn, err := m.AddTenant("alice", units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	// Reject: capacity returns to the pool, nothing stays committed.
	if _, err := m.Grant("alice", 512*units.KiB); err != nil {
		t.Fatal(err)
	}
	for _, ev := range tn.Events() {
		_, status := tn.Mailbox().Execute(cxl.OpAddDCDResponse, cxl.EncodeDCDResponse(ev.Extent.DCD(), false))
		if status != cxl.MboxSuccess {
			t.Fatalf("reject: %v", status)
		}
	}
	if m.Remaining() != initial {
		t.Errorf("remaining = %v after reject, want %v", m.Remaining(), initial)
	}
	// Quota: grants beyond the tenant's address space are refused.
	if _, err := m.Grant("alice", 2*units.MiB); err == nil {
		t.Error("grant beyond quota accepted")
	}
	if _, err := m.Grant("alice", units.MiB); err != nil {
		t.Fatal(err)
	}
	accept(t, tn)
	if _, err := m.Grant("alice", 64*units.KiB); err == nil {
		t.Error("grant beyond quota accepted after fill")
	}
	// Granule rounding: an odd size rounds up.
	tn2, err := m.AddTenant("bob", units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	exts, err := m.Grant("bob", 10*units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, e := range exts {
		total += e.Size
	}
	if total != uint64(64*units.KiB) {
		t.Errorf("10 KiB grant reserved %d bytes, want one 64 KiB granule", total)
	}
	accept(t, tn2)
}

// TestFragmentedGrant checks that a grant larger than any free run is
// satisfied as multiple extents, and that mailbox state queries see
// them all.
func TestFragmentedGrant(t *testing.T) {
	m := testFabric(t)
	tn, err := m.AddTenant("alice", 8*units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	// Fragment the pool: carve three raw extents, free the middle one,
	// then pin the rest so only scattered holes remain.
	a, err := m.mld.AllocExtent(6 * units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.mld.AllocExtent(4 * units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.mld.ReleaseExtent(cxl.Extent{Base: a.Base + uint64(2*units.MiB), Size: uint64(2 * units.MiB)}); err != nil {
		t.Fatal(err)
	}
	// Free space: a 2 MiB hole inside a, plus the 6 MiB tail.
	exts, err := m.Grant("alice", 8*units.MiB)
	if err != nil {
		t.Fatalf("fragmented grant failed: %v", err)
	}
	if len(exts) < 2 {
		t.Fatalf("fragmented grant yielded %d extent(s), want ≥2", len(exts))
	}
	accept(t, tn)
	if tn.Active() != 8*units.MiB {
		t.Errorf("active = %v, want 8 MiB", tn.Active())
	}
	// The mailbox extent list matches the manager's records.
	out, status := tn.Mailbox().Execute(cxl.OpGetDCDExtentList, nil)
	if status != cxl.MboxSuccess {
		t.Fatal(status)
	}
	list, err := cxl.DecodeDCDExtentList(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != len(exts) {
		t.Errorf("mailbox lists %d extents, manager granted %d", len(list), len(exts))
	}
	// And the config reports quota + granule.
	out, status = tn.Mailbox().Execute(cxl.OpGetDCDConfig, nil)
	if status != cxl.MboxSuccess {
		t.Fatal(status)
	}
	cfg, err := cxl.DecodeDCDConfig(out)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.TotalCapacity != uint64(8*units.MiB) || cfg.Granule != uint64(64*units.KiB) {
		t.Errorf("config = %+v", cfg)
	}
	// Cleanup path: release everything, expect full coalescing modulo
	// the two pinned raw extents.
	release(t, tn, accept(t, tn))
	_ = b
}

// TestMailboxDCDValidation exercises the malformed/stale inputs a host
// can throw at the DCD command set.
func TestMailboxDCDValidation(t *testing.T) {
	m := testFabric(t)
	tn, err := m.AddTenant("alice", units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	mbox := tn.Mailbox()
	if _, status := mbox.Execute(cxl.OpAddDCDResponse, []byte{1, 2, 3}); status != cxl.MboxInvalidInput {
		t.Errorf("short payload: %v", status)
	}
	if _, status := mbox.Execute(cxl.OpReleaseDCD, nil); status != cxl.MboxInvalidInput {
		t.Errorf("nil payload: %v", status)
	}
	// Unknown tag.
	bogus := cxl.DCDExtent{Base: 0, Size: uint64(64 * units.KiB), Tag: 999}
	if _, status := mbox.Execute(cxl.OpAddDCDResponse, cxl.EncodeDCDResponse(bogus, true)); status != cxl.MboxInvalidInput {
		t.Errorf("unknown tag accepted: %v", status)
	}
	if _, status := mbox.Execute(cxl.OpReleaseDCD, cxl.EncodeDCDExtent(bogus)); status != cxl.MboxInvalidInput {
		t.Errorf("unknown tag released: %v", status)
	}
	// Mismatched geometry on a real tag.
	exts, err := m.Grant("alice", 64*units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	wrong := exts[0].DCD()
	wrong.Size *= 2
	if _, status := mbox.Execute(cxl.OpAddDCDResponse, cxl.EncodeDCDResponse(wrong, true)); status != cxl.MboxInvalidInput {
		t.Errorf("mismatched extent accepted: %v", status)
	}
	// Double accept.
	ok := exts[0].DCD()
	if _, status := mbox.Execute(cxl.OpAddDCDResponse, cxl.EncodeDCDResponse(ok, true)); status != cxl.MboxSuccess {
		t.Fatalf("accept: %v", status)
	}
	if _, status := mbox.Execute(cxl.OpAddDCDResponse, cxl.EncodeDCDResponse(ok, true)); status != cxl.MboxInvalidInput {
		t.Errorf("double accept: %v", status)
	}
	// Double release.
	if _, status := mbox.Execute(cxl.OpReleaseDCD, cxl.EncodeDCDExtent(ok)); status != cxl.MboxSuccess {
		t.Fatalf("release: %v", status)
	}
	if _, status := mbox.Execute(cxl.OpReleaseDCD, cxl.EncodeDCDExtent(ok)); status != cxl.MboxInvalidInput {
		t.Errorf("double release: %v", status)
	}
	// A device without a DCD backend reports unsupported.
	plain, err := cxl.NewType3("plain", cxl.CXLVendorID, 1, tn.Device())
	if err != nil {
		t.Fatal(err)
	}
	pm, err := cxl.NewMailbox(plain, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, status := pm.Execute(cxl.OpGetDCDConfig, nil); status != cxl.MboxUnsupported {
		t.Errorf("DCD on plain device: %v", status)
	}
}

// TestConcurrentGrantReclaimUnderTraffic races the fabric control
// plane against tenants' data planes: one tenant streams bursts over a
// stable extent while the manager grants, reclaims and re-grants
// capacity for a second tenant, and the second tenant keeps poking its
// (appearing and vanishing) extents. Run under -race on CI.
func TestConcurrentGrantReclaimUnderTraffic(t *testing.T) {
	m := testFabric(t)
	steady, err := m.AddTenant("steady", 2*units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	churny, err := m.AddTenant("churny", 2*units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	rpS, wS := hostFor(t, m, "steady")
	rpC, wC := hostFor(t, m, "churny")
	if _, err := m.Grant("steady", units.MiB); err != nil {
		t.Fatal(err)
	}
	sExts := accept(t, steady)

	var wg sync.WaitGroup
	var steadyErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 4096)
		got := make([]byte, 4096)
		for i := range buf {
			buf[i] = 0x5D
		}
		addr := wS.Base + sExts[0].DPA
		for r := 0; r < 200; r++ {
			if err := rpS.WriteBurst(addr, buf); err != nil {
				steadyErr = err
				return
			}
			if err := rpS.ReadBurst(addr, got); err != nil {
				steadyErr = err
				return
			}
			if !bytes.Equal(buf, got) {
				steadyErr = &PoisonError{Device: "steady", DPA: sExts[0].DPA}
				return
			}
		}
	}()
	var churnErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 4096)
		for r := 0; r < 30; r++ {
			if _, err := m.Grant("churny", 128*units.KiB); err != nil {
				churnErr = err
				return
			}
			var exts []ExtentInfo
			for _, ev := range churny.Events() {
				if ev.Type != EventAddCapacity {
					continue
				}
				if _, status := churny.Mailbox().Execute(cxl.OpAddDCDResponse, cxl.EncodeDCDResponse(ev.Extent.DCD(), true)); status != cxl.MboxSuccess {
					churnErr = &PoisonError{Device: "accept failed", DPA: ev.Extent.DPA}
					return
				}
				exts = append(exts, ev.Extent)
			}
			for _, e := range exts {
				// Touch the extent; it may be revoked mid-flight by
				// the reclaim below, so errors are expected — only
				// data-path hangs or races would fail the test.
				_ = rpC.WriteBurst(wC.Base+e.DPA, buf)
			}
			if _, err := m.ForceReclaim("churny"); err != nil {
				churnErr = err
				return
			}
			var acks []ExtentInfo
			for _, ev := range churny.Events() {
				if ev.Type == EventForcedReclaim {
					acks = append(acks, ev.Extent)
				}
			}
			for _, e := range acks {
				if _, status := churny.Mailbox().Execute(cxl.OpReleaseDCD, cxl.EncodeDCDExtent(e.DCD())); status != cxl.MboxSuccess {
					churnErr = &PoisonError{Device: "ack failed", DPA: e.DPA}
					return
				}
			}
		}
	}()
	wg.Wait()
	if steadyErr != nil {
		t.Fatalf("steady tenant: %v", steadyErr)
	}
	if churnErr != nil {
		t.Fatalf("churny tenant: %v", churnErr)
	}
}
