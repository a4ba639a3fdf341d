package cxl

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"cxlpmem/internal/interconnect"
	"cxlpmem/internal/memdev"
	"cxlpmem/internal/units"
)

func testMedia(t *testing.T, name string) memdev.Device {
	t.Helper()
	d, err := memdev.NewDRAM(memdev.DRAMConfig{
		Name:               name,
		Rate:               1333,
		Channels:           2,
		CapacityPerChannel: 8 * units.MiB,
		BatteryBacked:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func testType3(t *testing.T) *Type3Device {
	t.Helper()
	dev, err := NewType3("cxl-mem0", 0x8086, 0x0D93, testMedia(t, "fpga-ddr4"))
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func trainedPort(t *testing.T, ep Endpoint) *RootPort {
	t.Helper()
	link, err := interconnect.NewPCIe("pcie5x16", interconnect.KindPCIe5, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	rp := NewRootPort("rp0", link)
	if err := rp.Attach(ep); err != nil {
		t.Fatal(err)
	}
	return rp
}

func TestType3MemReadWrite(t *testing.T) {
	dev := testType3(t)
	dec := &HDMDecoder{Base: 0x10_0000_0000, Size: 8 << 20}
	if err := dev.ProgramDecoder(dec); err != nil {
		t.Fatal(err)
	}
	var in [LineSize]byte
	for i := range in {
		in[i] = byte(i + 1)
	}
	resp := dev.HandleMem(MemReq{Opcode: OpMemWr, Addr: 0x10_0000_0040, Data: in, Tag: 3})
	if resp.Opcode != RespCmp || resp.Tag != 3 {
		t.Fatalf("write resp = %+v", resp)
	}
	resp = dev.HandleMem(MemReq{Opcode: OpMemRd, Addr: 0x10_0000_0040, Tag: 4})
	if resp.Opcode != RespMemData || resp.Tag != 4 {
		t.Fatalf("read resp = %+v", resp)
	}
	if !bytes.Equal(resp.Data[:], in[:]) {
		t.Error("data mismatch through HDM")
	}
	r, w := dev.Stats().Reads.Load(), dev.Stats().Writes.Load()
	if r != 1 || w != 1 {
		t.Errorf("stats = %d reads %d writes", r, w)
	}
}

// TestType3PartialWrite checks that a MemWrPtl changes exactly the
// masked bytes of the line, with one media write per run of set mask
// bits and no media read.
func TestType3PartialWrite(t *testing.T) {
	cases := []struct {
		name string
		mask uint64
		runs int64
	}{
		{"bytes 4-7", 0xF0, 1},
		{"two runs", 0xFF00FF, 2},
		{"run to byte 63", 0xFFFF << 48, 1},
		{"full mask", ^uint64(0), 1},
		{"zero mask", 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dev := testType3(t)
			if err := dev.ProgramDecoder(&HDMDecoder{Base: 0, Size: 1 << 20}); err != nil {
				t.Fatal(err)
			}
			var full [LineSize]byte
			for i := range full {
				full[i] = 0xAA
			}
			dev.HandleMem(MemReq{Opcode: OpMemWr, Addr: 0, Data: full})
			req := MemReq{Opcode: OpMemWrPtl, Addr: 0, Mask: tc.mask}
			want := full
			for i := range req.Data {
				req.Data[i] = byte(i + 1)
				if tc.mask&(1<<i) != 0 {
					want[i] = req.Data[i]
				}
			}
			media := dev.Media().Stats()
			reads, writes := media.Reads.Load(), media.Writes.Load()
			if resp := dev.HandleMem(req); resp.Opcode != RespCmp {
				t.Fatalf("partial write resp = %v", resp.Opcode)
			}
			if got := media.Reads.Load() - reads; got != 0 {
				t.Errorf("partial write read the media %d times, want 0", got)
			}
			if got := media.Writes.Load() - writes; got != tc.runs {
				t.Errorf("partial write made %d media writes, want %d (one per mask run)", got, tc.runs)
			}
			resp := dev.HandleMem(MemReq{Opcode: OpMemRd, Addr: 0})
			if !bytes.Equal(resp.Data[:], want[:]) {
				t.Errorf("after partial write:\n got %v\nwant %v", resp.Data[:], want[:])
			}
			if dev.Stats().PartialWrites.Load() != 1 {
				t.Error("partial write not counted")
			}
		})
	}
}

func TestType3UnmappedAddress(t *testing.T) {
	dev := testType3(t)
	resp := dev.HandleMem(MemReq{Opcode: OpMemRd, Addr: 0x40})
	if resp.Opcode != RespErr {
		t.Errorf("unmapped read resp = %v, want RespErr", resp.Opcode)
	}
	if dev.Stats().Errors.Load() != 1 {
		t.Error("error not counted")
	}
}

func TestType3MemInv(t *testing.T) {
	dev := testType3(t)
	if err := dev.ProgramDecoder(&HDMDecoder{Base: 0, Size: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	resp := dev.HandleMem(MemReq{Opcode: OpMemInv, Addr: 0})
	if resp.Opcode != RespCmp {
		t.Errorf("MemInv resp = %v", resp.Opcode)
	}
	if dev.Stats().Invalidates.Load() != 1 {
		t.Error("invalidate not counted")
	}
}

func TestProgramDecoderOverCapacity(t *testing.T) {
	dev := testType3(t) // 16 MiB media
	err := dev.ProgramDecoder(&HDMDecoder{Base: 0, Size: 64 << 20})
	if err == nil {
		t.Error("oversized decoder accepted")
	}
	if got := len(dev.Decoders()); got != 0 {
		t.Errorf("decoders = %d, want 0", got)
	}
}

func TestTwoWindowsOneDevice(t *testing.T) {
	// §2.2: "the same far memory segment can be made available to two
	// distinct NUMA nodes" — two HPA windows, one media.
	dev := testType3(t)
	if err := dev.ProgramDecoder(&HDMDecoder{Base: 0x10_0000_0000, Size: 8 << 20}); err != nil {
		t.Fatal(err)
	}
	if err := dev.ProgramDecoder(&HDMDecoder{Base: 0x20_0000_0000, Size: 8 << 20}); err != nil {
		t.Fatal(err)
	}
	var line [LineSize]byte
	line[0] = 0x42
	if resp := dev.HandleMem(MemReq{Opcode: OpMemWr, Addr: 0x10_0000_0000, Data: line}); resp.Opcode != RespCmp {
		t.Fatal("write via window 1 failed")
	}
	resp := dev.HandleMem(MemReq{Opcode: OpMemRd, Addr: 0x20_0000_0000})
	if resp.Opcode != RespMemData || resp.Data[0] != 0x42 {
		t.Error("windows do not alias the same media")
	}
}

func TestRootPortLinkTraining(t *testing.T) {
	link, _ := interconnect.NewPCIe("p", interconnect.KindPCIe5, 16, 0)
	rp := NewRootPort("rp0", link)
	if rp.State() != LinkDown {
		t.Error("fresh port should be down")
	}
	if err := rp.Attach(nil); err == nil {
		t.Error("attached nil endpoint")
	}
	dev := testType3(t)
	if err := rp.Attach(dev); err != nil {
		t.Fatal(err)
	}
	if rp.State() != LinkUp || rp.Endpoint() != Endpoint(dev) {
		t.Error("training did not bring link up")
	}
	if err := rp.Attach(dev); err == nil {
		t.Error("double attach accepted")
	}
	rp.Detach()
	if rp.State() != LinkDown || rp.Endpoint() != nil {
		t.Error("detach did not bring link down")
	}
	if rp.Name() != "rp0" || rp.Link() != link {
		t.Error("accessors mismatch")
	}
}

// nonCXLEndpoint has no DVSEC: training must fail.
type nonCXLEndpoint struct{ cfg ConfigSpace }

func (d *nonCXLEndpoint) Name() string            { return "plain-pcie" }
func (d *nonCXLEndpoint) DeviceType() DeviceType  { return Type3 }
func (d *nonCXLEndpoint) Config() *ConfigSpace    { return &d.cfg }
func (d *nonCXLEndpoint) serve(*frame) RespOpcode { return RespErr }

func TestTrainingRejectsNonCXL(t *testing.T) {
	link, _ := interconnect.NewPCIe("p", interconnect.KindPCIe5, 16, 0)
	rp := NewRootPort("rp0", link)
	if err := rp.Attach(&nonCXLEndpoint{}); err == nil {
		t.Error("trained against a device without CXL DVSEC")
	}
	if rp.State() != LinkDown {
		t.Error("failed training left link up")
	}
}

func TestRootPortLineOps(t *testing.T) {
	dev := testType3(t)
	if err := dev.ProgramDecoder(&HDMDecoder{Base: 0, Size: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	rp := trainedPort(t, dev)
	var in, out [LineSize]byte
	for i := range in {
		in[i] = byte(i)
	}
	if err := rp.WriteLine(128, &in); err != nil {
		t.Fatal(err)
	}
	if err := rp.ReadLine(128, &out); err != nil {
		t.Fatal(err)
	}
	if in != out {
		t.Error("line round trip mismatch")
	}
	if err := rp.WriteLine(130, &in); err == nil {
		t.Error("unaligned WriteLine accepted")
	}
	if err := rp.ReadLine(130, &out); err == nil {
		t.Error("unaligned ReadLine accepted")
	}
}

func TestRootPortBulkUnaligned(t *testing.T) {
	dev := testType3(t)
	if err := dev.ProgramDecoder(&HDMDecoder{Base: 0, Size: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	rp := trainedPort(t, dev)
	payload := []byte("unaligned payload spanning multiple CXL lines with head and tail fragments!")
	if err := rp.WriteAt(payload, 61); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(payload))
	if err := rp.ReadAt(out, 61); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, out) {
		t.Errorf("bulk round trip mismatch: %q", out)
	}
	// Partial writes must not clobber neighbours.
	probe := make([]byte, 2)
	if err := rp.ReadAt(probe, 59); err != nil {
		t.Fatal(err)
	}
	if probe[0] != 0 || probe[1] != 0 {
		t.Error("head partial write clobbered preceding bytes")
	}
	if dev.Stats().PartialWrites.Load() == 0 {
		t.Error("expected MemWrPtl for unaligned edges")
	}
}

func TestRootPortDownLinkFails(t *testing.T) {
	link, _ := interconnect.NewPCIe("p", interconnect.KindPCIe5, 16, 0)
	rp := NewRootPort("rp0", link)
	var line [LineSize]byte
	err := rp.ReadLine(0, &line)
	if err == nil {
		t.Fatal("read over down link succeeded")
	}
	var pe *PortError
	if pe, _ = err.(*PortError); pe == nil || !strings.Contains(pe.Error(), "link down") {
		t.Errorf("err = %v, want PortError(link down)", err)
	}
}

func TestRootPortFlitTrace(t *testing.T) {
	dev := testType3(t)
	if err := dev.ProgramDecoder(&HDMDecoder{Base: 0, Size: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	rp := trainedPort(t, dev)
	var flits int
	rp.SetFault(func(f Flit) Flit { flits++; return f })
	var line [LineSize]byte
	if err := rp.WriteLine(0, &line); err != nil {
		t.Fatal(err)
	}
	if flits != 2 { // one request, one response
		t.Errorf("traced %d flits, want 2", flits)
	}
}

func TestType1RejectsMem(t *testing.T) {
	d := NewType1("accel", 0x8086, 0x0001)
	if d.DeviceType() != Type1 {
		t.Error("wrong type")
	}
	// Type 1 serves no CXL.mem: through a port every request's
	// rejection surfaces as ErrBadResponse.
	rp := trainedPort(t, d)
	if err := rp.WriteBurst(0, make([]byte, 2*LineSize)); !errors.Is(err, ErrBadResponse) {
		t.Errorf("Type1 burst through a port: %v, want ErrBadResponse", err)
	}
	var line [LineSize]byte
	if err := rp.WriteLine(0, &line); !errors.Is(err, ErrBadResponse) {
		t.Errorf("Type1 line write through a port: %v, want ErrBadResponse", err)
	}
	if err := rp.ReadLine(uint64(LineSize), &line); !errors.Is(err, ErrBadResponse) {
		t.Errorf("Type1 line read through a port: %v, want ErrBadResponse", err)
	}
	info, ok := d.Config().FindCXLDVSEC()
	if !ok || info.Caps&CapMem != 0 || info.Caps&CapCache == 0 {
		t.Errorf("Type1 DVSEC caps = %v", info.Caps)
	}
}

func TestType2HasMemAndCache(t *testing.T) {
	d, err := NewType2("accel-mem", 0x8086, 0x0002, testMedia(t, "t2-media"))
	if err != nil {
		t.Fatal(err)
	}
	if d.DeviceType() != Type2 {
		t.Error("wrong type")
	}
	info, ok := d.Config().FindCXLDVSEC()
	if !ok || info.Caps != CapCache|CapIO|CapMem {
		t.Errorf("Type2 caps = %v", info.Caps)
	}
	if err := d.ProgramDecoder(&HDMDecoder{Base: 0, Size: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	var line [LineSize]byte
	line[0] = 9
	if resp := d.HandleMem(MemReq{Opcode: OpMemWr, Addr: 0, Data: line}); resp.Opcode != RespCmp {
		t.Error("Type2 write failed")
	}
}

func TestNewType3Validation(t *testing.T) {
	if _, err := NewType3("x", 0, 0, nil); err == nil {
		t.Error("accepted nil media")
	}
}

func TestDeviceStrings(t *testing.T) {
	dev := testType3(t)
	if s := dev.String(); !strings.Contains(s, "Type3") {
		t.Errorf("String = %q", s)
	}
	if Type1.String() != "Type1" || Type3.String() != "Type3" {
		t.Error("DeviceType strings")
	}
	if LinkUp.String() != "up" || LinkDown.String() != "down" {
		t.Error("LinkState strings")
	}
}

// devState is everything one request may change on a Type-3 device:
// its MemStats, its media counters and its media bytes.
type devState struct {
	mem                           [9]int64
	ras                           memdev.RASCounters
	reads, writes, bytesR, bytesW int64
	bytes                         []byte
}

// stateOf snapshots d's counters, then the first n media bytes (the
// read itself moves the media counters, equally on every device).
func stateOf(t *testing.T, d *Type3Device, n int) devState {
	t.Helper()
	st := d.Stats()
	s := devState{
		mem: [9]int64{st.Reads.Load(), st.Writes.Load(), st.PartialWrites.Load(), st.Invalidates.Load(),
			st.Errors.Load(), st.ReadBursts.Load(), st.WriteBursts.Load(), st.BurstLines.Load(), st.LineFallbacks.Load()},
		ras:   d.Media().Stats().RAS(),
		bytes: make([]byte, n),
	}
	s.reads, s.writes, s.bytesR, s.bytesW = d.Media().Stats().Snapshot()
	if err := d.Media().ReadAt(s.bytes, 0); err != nil {
		t.Fatal(err)
	}
	return s
}

// equivDevices builds two identical devices with a 1 MiB window at HPA
// 0 and one poisoned line: the first is driven through the exported
// Handle methods, the second through a port.
func equivDevices(t *testing.T, window, poisoned uint64) (direct, framed *Type3Device, rp *RootPort) {
	t.Helper()
	newDev := func() *Type3Device {
		d := testType3(t)
		if err := d.ProgramDecoder(&HDMDecoder{Base: 0, Size: window}); err != nil {
			t.Fatal(err)
		}
		d.SetPoisonChecker(func(dpa, n uint64) bool { return dpa <= poisoned && poisoned < dpa+n })
		return d
	}
	direct, framed = newDev(), newDev()
	return direct, framed, trainedPort(t, framed)
}

// TestHandleMemMatchesPortFramePath drives each line request through
// the exported HandleMem on one device and through the port's frame
// path on a twin: both must return the same status and leave the same
// media bytes, MemStats and media counters.
func TestHandleMemMatchesPortFramePath(t *testing.T) {
	const line = uint64(LineSize)
	const window, poisoned, span = 1 << 20, 5 * line, 8 * LineSize
	direct, framed, rp := equivDevices(t, window, poisoned)
	var data [LineSize]byte
	for i := range data {
		data[i] = byte(i*7 + 1)
	}
	cases := []struct {
		name string
		req  MemReq
	}{
		{"MemWr", MemReq{Opcode: OpMemWr, Addr: 2 * line, Data: data}},
		{"MemRd", MemReq{Opcode: OpMemRd, Addr: 2 * line}},
		{"MemWrPtl multi-run", MemReq{Opcode: OpMemWrPtl, Addr: 3 * line, Mask: 0xF0F0_0000_00FF_0F01, Data: data}},
		{"MemRd after MemWrPtl", MemReq{Opcode: OpMemRd, Addr: 3 * line}},
		{"MemInv", MemReq{Opcode: OpMemInv, Addr: 2 * line}},
		{"unmapped MemWr", MemReq{Opcode: OpMemWr, Addr: window + line, Data: data}},
		{"unmapped MemRd", MemReq{Opcode: OpMemRd, Addr: window}},
		{"poisoned MemRd", MemReq{Opcode: OpMemRd, Addr: poisoned}},
		{"poisoned MemWrPtl", MemReq{Opcode: OpMemWrPtl, Addr: poisoned, Mask: 0xFF, Data: data}},
	}
	for _, tc := range cases {
		resp := direct.HandleMem(tc.req)
		var got [LineSize]byte
		var err error
		switch tc.req.Opcode {
		case OpMemRd:
			err = rp.transact(OpMemRd, tc.req.Addr, 0, got[:], 0, nil)
		case OpMemInv:
			err = rp.transact(OpMemInv, tc.req.Addr, 0, nil, 0, nil)
		default:
			err = rp.transact(tc.req.Opcode, tc.req.Addr, tc.req.Mask, tc.req.Data[:], 0, nil)
		}
		if ok := resp.Opcode != RespErr; ok != (err == nil) || !ok && !errors.Is(err, ErrBadResponse) {
			t.Errorf("%s: HandleMem answered %v, the port returned %v", tc.name, resp.Opcode, err)
		}
		if tc.req.Opcode == OpMemRd && got != resp.Data {
			t.Errorf("%s: the port read a different line than HandleMem", tc.name)
		}
		d, f := stateOf(t, direct, span), stateOf(t, framed, span)
		if d.mem != f.mem || d.ras != f.ras || d.reads != f.reads || d.writes != f.writes ||
			d.bytesR != f.bytesR || d.bytesW != f.bytesW {
			t.Errorf("%s: counters differ:\n HandleMem %+v %+v\n port      %+v %+v", tc.name, d.mem, d.ras, f.mem, f.ras)
		}
		if !bytes.Equal(d.bytes, f.bytes) {
			t.Errorf("%s: media bytes differ", tc.name)
		}
	}
}

// TestHandleMemBurstMatchesPortBurst is the same comparison for bursts:
// HandleMemBurst on one device against a port burst on its twin.
func TestHandleMemBurstMatchesPortBurst(t *testing.T) {
	const line = uint64(LineSize)
	const window, poisoned, span = 1 << 20, 9 * line, 16 * LineSize
	direct, framed, rp := equivDevices(t, window, poisoned)
	data := make([]byte, 4*LineSize)
	for i := range data {
		data[i] = byte(i*13 + 5)
	}
	cases := []struct {
		name  string
		write bool
		addr  uint64
	}{
		{"write", true, 2 * line},
		{"read", false, 2 * line},
		{"write over poison", true, 8 * line},
		{"read over poison", false, 8 * line},
		{"read past the window", false, window - 2*line},
	}
	for _, tc := range cases {
		op := OpMemRdBurst
		if tc.write {
			op = OpMemWrBurst
		}
		payload := append([]byte(nil), data...)
		if !tc.write {
			payload = make([]byte, len(data))
		}
		resp := direct.HandleMemBurst(MemReq{Opcode: op, Addr: tc.addr, Lines: 4}, payload)
		got := append([]byte(nil), data...)
		var err error
		if tc.write {
			err = rp.WriteBurst(tc.addr, got)
		} else {
			got = make([]byte, len(data))
			err = rp.ReadBurst(tc.addr, got)
		}
		if ok := resp.Opcode != RespErr; ok != (err == nil) || !ok && !errors.Is(err, ErrBadResponse) {
			t.Errorf("%s: HandleMemBurst answered %v, the port returned %v", tc.name, resp.Opcode, err)
		}
		if !tc.write && resp.Opcode != RespErr && !bytes.Equal(got, payload) {
			t.Errorf("%s: the port read different bytes than HandleMemBurst", tc.name)
		}
		d, f := stateOf(t, direct, span), stateOf(t, framed, span)
		if d.mem != f.mem || d.ras != f.ras || d.reads != f.reads || d.writes != f.writes ||
			d.bytesR != f.bytesR || d.bytesW != f.bytesW {
			t.Errorf("%s: counters differ:\n HandleMemBurst %+v %+v\n port           %+v %+v", tc.name, d.mem, d.ras, f.mem, f.ras)
		}
		if !bytes.Equal(d.bytes, f.bytes) {
			t.Errorf("%s: media bytes differ", tc.name)
		}
	}
}
