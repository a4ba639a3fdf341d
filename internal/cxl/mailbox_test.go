package cxl

import (
	"encoding/binary"
	"sync/atomic"
	"testing"
	"time"
)

func testMailbox(t *testing.T) (*Mailbox, *Type3Device) {
	t.Helper()
	dev := testType3(t)
	mb, err := NewMailbox(dev, "fw-0.9")
	if err != nil {
		t.Fatal(err)
	}
	return mb, dev
}

func TestMailboxIdentify(t *testing.T) {
	mb, dev := testMailbox(t)
	out, status := mb.Execute(OpIdentifyMemDevice, nil)
	if status != MboxSuccess {
		t.Fatalf("status = %v", status)
	}
	id, err := DecodeIdentity(out)
	if err != nil {
		t.Fatal(err)
	}
	if id.Vendor != 0x8086 || id.Device != 0x0D93 {
		t.Errorf("identity = %+v", id)
	}
	if id.TotalCap != uint64(dev.Media().Capacity().Bytes()) {
		t.Errorf("capacity = %d", id.TotalCap)
	}
	if !id.Persistent || id.LineSize != 64 || id.FirmwareRev != "fw-0.9" {
		t.Errorf("identity = %+v", id)
	}
	if _, err := DecodeIdentity(out[:10]); err == nil {
		t.Error("short identity accepted")
	}
}

func TestMailboxHealthReflectsBattery(t *testing.T) {
	mb, _ := testMailbox(t)
	out, status := mb.Execute(OpGetHealthInfo, nil)
	if status != MboxSuccess {
		t.Fatal(status)
	}
	h, err := DecodeHealth(out)
	if err != nil {
		t.Fatal(err)
	}
	if !h.MediaOK || !h.BatteryOK || h.PoisonedLines != 0 {
		t.Errorf("health = %+v", h)
	}
	if _, err := DecodeHealth(nil); err == nil {
		t.Error("short health accepted")
	}
}

func TestMailboxPartitionInfo(t *testing.T) {
	mb, dev := testMailbox(t)
	out, status := mb.Execute(OpGetPartitionInfo, nil)
	if status != MboxSuccess {
		t.Fatal(status)
	}
	pi, err := DecodePartitionInfo(out)
	if err != nil {
		t.Fatal(err)
	}
	// Battery-backed media: all persistent, no volatile partition.
	if pi.VolatileBytes != 0 || pi.PersistentBytes != uint64(dev.Media().Capacity().Bytes()) {
		t.Errorf("partition = %+v", pi)
	}
	if _, err := DecodePartitionInfo([]byte{1}); err == nil {
		t.Error("short partition accepted")
	}
}

func TestMailboxPoisonLifecycle(t *testing.T) {
	mb, dev := testMailbox(t)
	if err := dev.ProgramDecoder(&HDMDecoder{Base: 0, Size: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	addr := make([]byte, 8)
	binary.LittleEndian.PutUint64(addr, 0x1000)
	if _, status := mb.Execute(OpInjectPoison, addr); status != MboxSuccess {
		t.Fatalf("inject = %v", status)
	}
	// Reads of the poisoned line fail through the CXL.mem path.
	resp := dev.HandleMem(MemReq{Opcode: OpMemRd, Addr: 0x1000})
	if resp.Opcode != RespErr {
		t.Error("poisoned line served data")
	}
	// Neighbouring lines unaffected.
	if resp := dev.HandleMem(MemReq{Opcode: OpMemRd, Addr: 0x1040}); resp.Opcode != RespMemData {
		t.Error("poison leaked to neighbour line")
	}
	// List reflects it.
	out, status := mb.Execute(OpGetPoisonList, nil)
	if status != MboxSuccess {
		t.Fatal(status)
	}
	list, err := DecodePoisonList(out)
	if err != nil || len(list) != 1 || list[0] != 0x1000 {
		t.Errorf("poison list = %v, %v", list, err)
	}
	// So does the per-line probe the RAS plane polls, for any DPA
	// inside the line.
	if !mb.IsPoisoned(0x1000) || !mb.IsPoisoned(0x1010) || mb.IsPoisoned(0x1040) {
		t.Error("IsPoisoned disagrees with the poison list")
	}
	// Health counts it.
	hb, _ := mb.Execute(OpGetHealthInfo, nil)
	h, _ := DecodeHealth(hb)
	if h.PoisonedLines != 1 {
		t.Errorf("health poisoned = %d", h.PoisonedLines)
	}
	// Clear restores access.
	if _, status := mb.Execute(OpClearPoison, addr); status != MboxSuccess {
		t.Fatal("clear failed")
	}
	if resp := dev.HandleMem(MemReq{Opcode: OpMemRd, Addr: 0x1000}); resp.Opcode != RespMemData {
		t.Error("cleared line still failing")
	}
	if mb.IsPoisoned(0x1000) {
		t.Error("IsPoisoned still reports the cleared line")
	}
}

// TestMailboxExecuteTimeout: a command the fault hook stalls returns
// MboxTimeout once its deadline passes and charges one CommandTimeouts
// to the device; without the stall it answers in time, a non-positive
// deadline degenerates to Execute, and an intercepting hook answers in
// the device's place.
func TestMailboxExecuteTimeout(t *testing.T) {
	mb, dev := testMailbox(t)
	timeouts := &dev.Media().Stats().CommandTimeouts
	release := make(chan struct{})
	mb.SetFault(func(op MailboxOpcode) (MailboxStatus, bool) {
		if op == OpIdentifyMemDevice {
			<-release // a stalled firmware command
		}
		return MboxSuccess, false
	})
	const d = 5 * time.Millisecond
	start := time.Now()
	out, status := mb.ExecuteTimeout(OpIdentifyMemDevice, nil, d)
	if elapsed := time.Since(start); status != MboxTimeout || out != nil || elapsed < d {
		t.Fatalf("stalled command = %v after %v (out %v), want %v after at least %v", status, elapsed, out, MboxTimeout, d)
	}
	if got := timeouts.Load(); got != 1 {
		t.Errorf("CommandTimeouts = %d, want 1", got)
	}
	close(release) // the stalled command finishes device-side; its result is discarded
	mb.SetFault(nil)
	if _, status := mb.ExecuteTimeout(OpIdentifyMemDevice, nil, 10*time.Second); status != MboxSuccess {
		t.Errorf("unstalled command = %v, want %v", status, MboxSuccess)
	}
	if _, status := mb.ExecuteTimeout(OpGetHealthInfo, nil, 0); status != MboxSuccess {
		t.Errorf("command with no deadline = %v, want %v", status, MboxSuccess)
	}
	if got := timeouts.Load(); got != 1 {
		t.Errorf("CommandTimeouts = %d after commands that answered, want 1", got)
	}
	mb.SetFault(func(MailboxOpcode) (MailboxStatus, bool) { return MboxInternalError, true })
	if _, status := mb.Execute(OpGetHealthInfo, nil); status != MboxInternalError {
		t.Errorf("intercepted command = %v, want %v", status, MboxInternalError)
	}
	if MboxTimeout.String() != "timeout" || MboxInternalError.String() != "internal-error" {
		t.Errorf("status strings %q, %q", MboxTimeout, MboxInternalError)
	}
}

func TestMailboxPoisonValidation(t *testing.T) {
	mb, _ := testMailbox(t)
	if _, status := mb.Execute(OpInjectPoison, []byte{1, 2}); status != MboxInvalidInput {
		t.Error("short payload accepted")
	}
	addr := make([]byte, 8)
	binary.LittleEndian.PutUint64(addr, 0x1001) // unaligned
	if _, status := mb.Execute(OpInjectPoison, addr); status != MboxInvalidInput {
		t.Error("unaligned DPA accepted")
	}
	binary.LittleEndian.PutUint64(addr, 1<<40) // beyond media
	if _, status := mb.Execute(OpInjectPoison, addr); status != MboxInvalidInput {
		t.Error("out-of-media DPA accepted")
	}
	if _, status := mb.Execute(MailboxOpcode(0x9999), nil); status != MboxUnsupported {
		t.Error("unknown opcode not rejected")
	}
	if MboxSuccess.String() == "" || MailboxStatus(77).String() == "" {
		t.Error("status strings")
	}
	if _, err := DecodePoisonList([]byte{1}); err == nil {
		t.Error("short poison list accepted")
	}
	if _, err := DecodePoisonList([]byte{2, 0, 0, 0, 1, 2, 3}); err == nil {
		t.Error("truncated poison list accepted")
	}
	if _, err := NewMailbox(nil, ""); err == nil {
		t.Error("nil device accepted")
	}
}

func TestMailboxSanitize(t *testing.T) {
	mb, dev := testMailbox(t)
	if err := dev.ProgramDecoder(&HDMDecoder{Base: 0, Size: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	var line [LineSize]byte
	line[0] = 0xEE
	if resp := dev.HandleMem(MemReq{Opcode: OpMemWr, Addr: 0x400, Data: line}); resp.Opcode != RespCmp {
		t.Fatal("seed write failed")
	}
	addr := make([]byte, 8)
	binary.LittleEndian.PutUint64(addr, 0x2000)
	if _, status := mb.Execute(OpInjectPoison, addr); status != MboxSuccess {
		t.Fatal("inject failed")
	}
	if _, status := mb.Execute(OpSanitize, nil); status != MboxSuccess {
		t.Fatal("sanitize failed")
	}
	resp := dev.HandleMem(MemReq{Opcode: OpMemRd, Addr: 0x400})
	if resp.Opcode != RespMemData || resp.Data[0] != 0 {
		t.Error("sanitize left data behind")
	}
	// Poison list cleared too.
	out, _ := mb.Execute(OpGetPoisonList, nil)
	list, _ := DecodePoisonList(out)
	if len(list) != 0 {
		t.Error("sanitize left poison entries")
	}
}

func TestLinkRetryRecoversTransientCorruption(t *testing.T) {
	dev := testType3(t)
	if err := dev.ProgramDecoder(&HDMDecoder{Base: 0, Size: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	rp := trainedPort(t, dev)
	// Corrupt the first two flits only; the LRSM retransmits.
	var n atomic.Int64
	rp.SetFault(func(f Flit) Flit {
		if n.Add(1) <= 2 {
			return f.Corrupt(100)
		}
		return f
	})
	var in, out [LineSize]byte
	in[0] = 0x5A
	if err := rp.WriteLine(0, &in); err != nil {
		t.Fatalf("write with transient corruption: %v", err)
	}
	if err := rp.ReadLine(0, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Error("data corrupted despite retry")
	}
	if rp.Stats().Retries != 2 {
		t.Errorf("retries = %d, want 2", rp.Stats().Retries)
	}
}

func TestLinkRetryGivesUpOnPersistentFault(t *testing.T) {
	dev := testType3(t)
	if err := dev.ProgramDecoder(&HDMDecoder{Base: 0, Size: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	rp := trainedPort(t, dev)
	rp.SetFault(func(f Flit) Flit { return f.Corrupt(7) }) // always bad
	var line [LineSize]byte
	err := rp.WriteLine(0, &line)
	if err == nil {
		t.Fatal("persistent corruption not detected")
	}
	pe, ok := err.(*PortError)
	if !ok || pe.Why == "" {
		t.Errorf("err = %v, want PortError(uncorrectable)", err)
	}
	if rp.Stats().Retries < maxLinkRetries {
		t.Errorf("retries = %d, want >= %d", rp.Stats().Retries, maxLinkRetries)
	}
}

// TestDecodeListLengthOverflow feeds the list decoders hostile counts
// whose byte-length products wrap a 32-bit int: the length check must
// reject them instead of over-allocating and indexing past the buffer.
func TestDecodeListLengthOverflow(t *testing.T) {
	// 24*178956971 ≡ 8 (mod 2^32): a 12-byte payload would pass a
	// 32-bit check.
	b := make([]byte, 12)
	binary.LittleEndian.PutUint32(b, 178956971)
	if _, err := DecodeDCDExtentList(b); err == nil {
		t.Error("overflowing DCD extent count accepted")
	}
	// 8*536870912 ≡ 0 (mod 2^32): a 4-byte poison payload would pass.
	p := make([]byte, 4)
	binary.LittleEndian.PutUint32(p, 536870912)
	if _, err := DecodePoisonList(p); err == nil {
		t.Error("overflowing poison count accepted")
	}
}
