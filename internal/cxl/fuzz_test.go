package cxl

import (
	"bytes"
	"encoding/binary"
	"testing"

	"cxlpmem/internal/memdev"
	"cxlpmem/internal/units"
)

// Native Go fuzzing for the wire layer: whatever bytes arrive off the
// link or through the command mailbox, decode must never panic, and
// every message that decodes must survive an encode/decode round trip
// unchanged. The seed corpus is generated by the real encode paths, so
// the fuzzer starts from valid wire traffic and mutates outward. CI
// runs each target for a 30-second smoke (see .github/workflows).

// flitSeeds produces one valid wire image per flit kind, plus
// corrupted and truncated variants.
func flitSeeds() [][]byte {
	var seeds [][]byte
	var f Flit

	EncodeReqInto(&f, &MemReq{Opcode: OpMemWrPtl, Addr: 0x1000, Tag: 7, Mask: 0xFF00FF, Data: [LineSize]byte{1, 2, 3}})
	seeds = append(seeds, append([]byte(nil), f.Bytes()...))
	EncodeReqInto(&f, &MemReq{Opcode: OpMemRdBurst, Addr: 0x2000, Tag: 9, Lines: MaxBurstLines})
	seeds = append(seeds, append([]byte(nil), f.Bytes()...))
	EncodeRespInto(&f, &MemResp{Opcode: RespMemData, Tag: 3, Data: [LineSize]byte{0xAA}})
	seeds = append(seeds, append([]byte(nil), f.Bytes()...))
	EncodeDataInto(&f, 21, 63, &[LineSize]byte{5, 6, 7})
	seeds = append(seeds, append([]byte(nil), f.Bytes()...))
	EncodeBISnpInto(&f, &BISnp{Opcode: SnpInv, Addr: 0x3000, Tag: 11})
	seeds = append(seeds, append([]byte(nil), f.Bytes()...))
	EncodeBIRspInto(&f, &BIRsp{Opcode: RspSHit, Tag: 12, Dirty: true})
	seeds = append(seeds, append([]byte(nil), f.Bytes()...))

	// A bit-flipped request (bad CRC) and a truncated flit.
	EncodeReqInto(&f, &MemReq{Opcode: OpMemRd, Addr: 0x40})
	corrupted := f.Corrupt(17)
	seeds = append(seeds, append([]byte(nil), corrupted.Bytes()...))
	seeds = append(seeds, seeds[0][:20])
	// A status-only completion, as the port sends one: tag 0, zero payload.
	EncodeRespInto(&f, &MemResp{Opcode: RespCmp})
	seeds = append(seeds, append([]byte(nil), f.Bytes()...))
	return seeds
}

// moverDecode delivers fl to the port's mover as a flit of m's kind, in
// place of the one the mover encodes, with no retries: err is the
// mover's verdict, and fr.req (a request) or m (a data beat's
// destination, a completion's status and tag) hold what it decoded.
func moverDecode(rp *RootPort, fl Flit, fr *frame, m *wireMsg) error {
	h := &portHooks{fault: func(Flit) Flit { return fl }}
	return rp.move(&portSession{}, h, &rp.vcs[0], fr, m)
}

// FuzzFlitDecode asserts the wire-layer invariants over arbitrary flit
// bytes: (1) no decoder ever panics, (2) any flit a decoder accepts
// re-encodes to a flit that decodes to the same message (decode ∘
// encode = identity on the decoded image), and (3) the port's mover,
// decoding a flit as its request, data beat or status-only completion,
// gives the same verdict and fields as the exported decoder of that
// kind: one codec per flit kind.
func FuzzFlitDecode(f *testing.F) {
	for _, s := range flitSeeds() {
		f.Add(s)
	}
	rp := NewRootPort("fuzz", nil)
	rp.SetOptions(PortOptions{MaxLinkRetries: -1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		fl := FlitFromBytes(raw)

		var req, moved MemReq
		reqErr := DecodeReqInto(&req, &fl)
		fr := new(frame)
		if err := moverDecode(rp, fl, fr, &wireMsg{kind: flitKindReq}); (err == nil) != (reqErr == nil) {
			t.Fatalf("request: mover verdict %v, DecodeReqInto %v", err, reqErr)
		} else if moved = fr.req; err == nil && moved != req {
			t.Fatalf("request: mover decoded %+v, DecodeReqInto %+v", moved, req)
		}

		var beat, movedBeat [LineSize]byte
		tag, seq, dataErr := DecodeDataInto(&beat, &fl)
		// The mover also checks a beat's tag and sequence against the
		// ones it expects; expect what the flit carries.
		dm := wireMsg{kind: flitKindData, src: &beat, dst: &movedBeat,
			tag: uint16(binary.LittleEndian.Uint64(fl.raw[0:8]) >> 16), seq: uint32(binary.LittleEndian.Uint64(fl.raw[8:16]))}
		if err := moverDecode(rp, fl, fr, &dm); (err == nil) != (dataErr == nil) {
			t.Fatalf("data beat: mover verdict %v, DecodeDataInto %v", err, dataErr)
		} else if err == nil && (dm.tag != tag || dm.seq != seq || movedBeat != beat) {
			t.Fatal("data beat: mover and DecodeDataInto decoded different beats")
		}

		var resp MemResp
		respErr := DecodeRespInto(&resp, &fl)
		cm := wireMsg{kind: flitKindResp}
		if err := moverDecode(rp, fl, fr, &cm); (err == nil) != (respErr == nil) {
			t.Fatalf("completion: mover verdict %v, DecodeRespInto %v", err, respErr)
		} else if err == nil && (cm.resp != resp.Opcode || cm.tag != resp.Tag) {
			t.Fatalf("completion: mover decoded %v tag %d, DecodeRespInto %v tag %d", cm.resp, cm.tag, resp.Opcode, resp.Tag)
		}

		if reqErr == nil {
			var rt Flit
			EncodeReqInto(&rt, &req)
			var req2 MemReq
			if err := DecodeReqInto(&req2, &rt); err != nil {
				t.Fatalf("re-encoded request fails decode: %v", err)
			}
			if req2 != req {
				t.Fatalf("request round trip mismatch:\n got %+v\nwant %+v", req2, req)
			}
		}

		if respErr == nil {
			var rt Flit
			EncodeRespInto(&rt, &resp)
			var resp2 MemResp
			if err := DecodeRespInto(&resp2, &rt); err != nil {
				t.Fatalf("re-encoded response fails decode: %v", err)
			}
			if resp2 != resp {
				t.Fatalf("response round trip mismatch:\n got %+v\nwant %+v", resp2, resp)
			}
		}

		if dataErr == nil {
			var rt Flit
			EncodeDataInto(&rt, tag, seq, &beat)
			var payload2 [LineSize]byte
			tag2, seq2, err := DecodeDataInto(&payload2, &rt)
			if err != nil {
				t.Fatalf("re-encoded data beat fails decode: %v", err)
			}
			if tag2 != tag || seq2 != seq || payload2 != beat {
				t.Fatal("data beat round trip mismatch")
			}
		}

		var snp BISnp
		if err := DecodeBISnpInto(&snp, &fl); err == nil {
			var rt Flit
			EncodeBISnpInto(&rt, &snp)
			var snp2 BISnp
			if err := DecodeBISnpInto(&snp2, &rt); err != nil {
				t.Fatalf("re-encoded BISnp fails decode: %v", err)
			}
			if snp2 != snp {
				t.Fatalf("BISnp round trip mismatch: got %+v want %+v", snp2, snp)
			}
		}

		var brsp BIRsp
		if err := DecodeBIRspInto(&brsp, &fl); err == nil {
			var rt Flit
			EncodeBIRspInto(&rt, &brsp)
			var brsp2 BIRsp
			if err := DecodeBIRspInto(&brsp2, &rt); err != nil {
				t.Fatalf("re-encoded BIRsp fails decode: %v", err)
			}
			if brsp2 != brsp {
				t.Fatalf("BIRsp round trip mismatch: got %+v want %+v", brsp2, brsp)
			}
		}
	})
}

// fuzzDCD is a minimal DCD backend so the mailbox's dynamic-capacity
// decode paths are reachable from the fuzzer.
type fuzzDCD struct{}

func (fuzzDCD) DCDConfig() DCDConfig { return DCDConfig{TotalCapacity: 1 << 20, Granule: 1 << 16} }
func (fuzzDCD) DCDExtents() []DCDExtent {
	return []DCDExtent{{Base: 0, Size: 1 << 16, Tag: 1}}
}
func (fuzzDCD) AddCapacityResponse(ext DCDExtent, accept bool) error { return nil }
func (fuzzDCD) ReleaseCapacity(ext DCDExtent) error                  { return nil }

// FuzzMailboxCommand feeds arbitrary opcodes and payloads to a live
// device mailbox: Execute must never panic, success responses must
// decode with the public helpers, and the response decoders themselves
// must reject arbitrary bytes without panicking (hostile length-prefix
// handling included).
func FuzzMailboxCommand(f *testing.F) {
	media, err := memdev.NewDRAM(memdev.DRAMConfig{
		Name:               "fuzz-dram",
		Rate:               3200,
		Channels:           1,
		CapacityPerChannel: 64 * units.KiB,
	})
	if err != nil {
		f.Fatal(err)
	}
	dev, err := NewType3("fuzz-dev", CXLVendorID, 0x0D93, media)
	if err != nil {
		f.Fatal(err)
	}
	mbox, err := NewMailbox(dev, "fuzz-1.0")
	if err != nil {
		f.Fatal(err)
	}
	mbox.SetDCD(fuzzDCD{})

	// Seeds from the real encode paths: every supported opcode with a
	// well-formed payload, plus hostile variants.
	var addr [8]byte
	f.Add(uint16(OpIdentifyMemDevice), []byte{})
	f.Add(uint16(OpGetHealthInfo), []byte{})
	f.Add(uint16(OpGetPartitionInfo), []byte{})
	f.Add(uint16(OpGetPoisonList), []byte{})
	f.Add(uint16(OpInjectPoison), addr[:])
	f.Add(uint16(OpClearPoison), addr[:])
	f.Add(uint16(OpSanitize), []byte{})
	f.Add(uint16(OpGetDCDConfig), []byte{})
	f.Add(uint16(OpGetDCDExtentList), []byte{})
	f.Add(uint16(OpAddDCDResponse), EncodeDCDResponse(DCDExtent{Base: 0, Size: 1 << 16, Tag: 1}, true))
	f.Add(uint16(OpReleaseDCD), EncodeDCDExtent(DCDExtent{Base: 0, Size: 1 << 16, Tag: 1}))
	// Hostile: a length prefix claiming 2^31 extents over a short body.
	f.Add(uint16(OpGetDCDExtentList), []byte{0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3})
	f.Add(uint16(0xFFFF), []byte{0, 1, 2})

	f.Fuzz(func(t *testing.T, op uint16, payload []byte) {
		out, status := mbox.Execute(MailboxOpcode(op), payload)
		if status != MboxSuccess && len(out) != 0 {
			t.Fatalf("op %#x: failed status %v carries %d payload bytes", op, status, len(out))
		}
		if status == MboxSuccess {
			switch MailboxOpcode(op) {
			case OpIdentifyMemDevice:
				if _, err := DecodeIdentity(out); err != nil {
					t.Fatalf("identity response undecodable: %v", err)
				}
			case OpGetHealthInfo:
				if _, err := DecodeHealth(out); err != nil {
					t.Fatalf("health response undecodable: %v", err)
				}
			case OpGetPartitionInfo:
				if _, err := DecodePartitionInfo(out); err != nil {
					t.Fatalf("partition response undecodable: %v", err)
				}
			case OpGetPoisonList:
				if _, err := DecodePoisonList(out); err != nil {
					t.Fatalf("poison list undecodable: %v", err)
				}
			case OpGetDCDConfig:
				if _, err := DecodeDCDConfig(out); err != nil {
					t.Fatalf("dcd config undecodable: %v", err)
				}
			case OpGetDCDExtentList:
				if _, err := DecodeDCDExtentList(out); err != nil {
					t.Fatalf("dcd extent list undecodable: %v", err)
				}
			}
		}
		// The response decoders must also survive the raw fuzz payload
		// (a hostile peer's "response") without panicking.
		_, _ = DecodePoisonList(payload)
		_, _ = DecodeDCDExtentList(payload)
		_, _, _ = DecodeDCDResponse(payload)
		_, _ = DecodeDCDExtent(payload)
		_, _ = DecodeIdentity(payload)
	})
}

// TestFlitBytesRoundTrip pins the raw accessor pair the fuzzer depends
// on: Bytes must expose the exact wire image FlitFromBytes rebuilds.
func TestFlitBytesRoundTrip(t *testing.T) {
	f := EncodeReq(MemReq{Opcode: OpMemWr, Addr: 0x80, Tag: 5, Data: [LineSize]byte{9}})
	g := FlitFromBytes(f.Bytes())
	if !bytes.Equal(f.Bytes(), g.Bytes()) {
		t.Fatal("FlitFromBytes(Bytes()) is not the identity")
	}
	req, err := DecodeReq(g)
	if err != nil || req.Addr != 0x80 || req.Tag != 5 {
		t.Fatalf("rebuilt flit decode = %+v, %v", req, err)
	}
	// Short input zero-fills; the checksum then fails, never panics.
	short := FlitFromBytes(f.Bytes()[:10])
	if _, err := DecodeReq(short); err == nil {
		t.Error("truncated flit accepted")
	}
}
