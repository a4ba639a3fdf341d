// Package cxl implements the Compute Express Link substrate the paper's
// prototype is built on: the CXL.mem transaction layer that carries
// MemRd/MemWr requests from the CPU host to host-managed device memory
// (HDM), the CXL.io path used for configuration and enumeration, the HDM
// address decoder, Type 1/2/3 endpoint classes (CXL 1.1/2.0, §1.3), and a
// CXL 2.0 switch with device-level memory pooling.
//
// The layering mirrors the paper's §2.2 description of the FPGA
// prototype: a link layer ("R-Tile Hard IP", modelled in internal/fpga)
// establishes the connection, the CXL.mem transaction layer "adeptly
// handles incoming CXL.mem requests originating from the CPU host" and
// generates HDM requests toward an HDM subsystem, and the CXL.io
// transaction layer processes configuration and memory-space requests.
package cxl

import (
	"encoding/binary"
	"fmt"

	"cxlpmem/internal/units"
)

// LineSize is the CXL.mem transfer granule: one 64-byte cache line per
// request/data message.
const LineSize = int(units.CacheLine)

// MemOpcode enumerates the master-to-subordinate (M2S) request opcodes we
// model from the CXL.mem protocol.
type MemOpcode uint8

const (
	// OpMemInv invalidates device-tracked coherency state. In the
	// prototype's Type-3 flow it is a metadata-only round trip.
	OpMemInv MemOpcode = iota
	// OpMemRd requests a full line of data.
	OpMemRd
	// OpMemWr writes a full 64-byte line.
	OpMemWr
	// OpMemWrPtl writes a partial line under a byte mask.
	OpMemWrPtl
	// OpMemRdBurst requests Lines back-to-back cache lines starting at
	// Addr: one header flit out, a response header plus Lines all-data
	// flits back (CXL's streaming all-data-flit mode).
	OpMemRdBurst
	// OpMemWrBurst writes Lines back-to-back cache lines starting at
	// Addr: a header flit followed by Lines all-data flits, completed by
	// a single Cmp.
	OpMemWrBurst
)

func (o MemOpcode) String() string {
	switch o {
	case OpMemInv:
		return "MemInv"
	case OpMemRd:
		return "MemRd"
	case OpMemWr:
		return "MemWr"
	case OpMemWrPtl:
		return "MemWrPtl"
	case OpMemRdBurst:
		return "MemRdBurst"
	case OpMemWrBurst:
		return "MemWrBurst"
	default:
		return fmt.Sprintf("MemOpcode(%d)", uint8(o))
	}
}

// RespOpcode enumerates subordinate-to-master (S2M) responses: no-data
// responses (NDR) and data responses (DRS).
type RespOpcode uint8

const (
	// RespCmp completes a write or invalidate (NDR).
	RespCmp RespOpcode = iota
	// RespMemData carries a full line back to the host (DRS).
	RespMemData
	// RespErr reports an access outside any HDM range or a device
	// fault. Poison in real CXL; a typed error here.
	RespErr
)

func (o RespOpcode) String() string {
	switch o {
	case RespCmp:
		return "Cmp"
	case RespMemData:
		return "MemData"
	case RespErr:
		return "Err"
	default:
		return fmt.Sprintf("RespOpcode(%d)", uint8(o))
	}
}

// MaxBurstLines caps how many data flits one burst header may carry:
// 64 lines = 4 KiB, the sweet spot between header amortisation and the
// link-layer retry buffer a real LRSM would need to hold.
const MaxBurstLines = 64

// MemReq is one M2S CXL.mem request. Addr is a host physical address
// (HPA), line-aligned for full-line ops.
type MemReq struct {
	Opcode MemOpcode
	Addr   uint64
	Tag    uint16
	// Lines is the data-flit count for OpMemRdBurst/OpMemWrBurst
	// (1..MaxBurstLines); zero for single-line opcodes.
	Lines uint16
	// Data carries the payload for MemWr/MemWrPtl. Burst payloads travel
	// in dedicated data flits, not in the header.
	Data [LineSize]byte
	// Mask selects valid bytes for MemWrPtl (bit i covers Data[i]).
	Mask uint64
}

// MemResp is one S2M response.
type MemResp struct {
	Opcode RespOpcode
	Tag    uint16
	Data   [LineSize]byte
}

// FlitSize is the CXL 1.1/2.0 flit size in bytes: 64 bytes of slots plus
// 2 bytes of CRC and 2 bytes of protocol ID.
const FlitSize = 68

// Flit header layout (byte offsets in raw):
//
// The header is three full 64-bit words so encode and decode move whole
// aligned words (partial stores into a word the checksum immediately
// reloads would stall on store forwarding):
//
//	0     kind: 0 = request, 1 = response, 2 = data, 3 = BISnp, 4 = BIRsp
//	1     opcode
//	2:4   tag (little endian)
//	4:6   burst line count (MemRdBurst/MemWrBurst) / zero
//	6:8   reserved
//	8:16  address (requests) / sequence number (data flits) / zero
//	16:24 mask (MemWrPtl) / zero
//	24:88 data payload
//	88:92 checksum (word-folded, detects corruption in tests)
const flitHeaderSize = 24
const flitBodySize = flitHeaderSize + LineSize
const flitRawSize = flitBodySize + 4

const (
	flitKindReq   = 0
	flitKindResp  = 1
	flitKindData  = 2
	flitKindBISnp = 3
	flitKindBIRsp = 4
)

// Flit is the wire representation of a single request, response or burst
// data beat. It is a fixed-size value type: the hot path encodes into a
// caller-held Flit and never touches the heap. The encoding is a
// faithful-to-the-shape simplification: a header slot followed by the
// 64-byte payload; a full-line message occupies two flits on a real
// link, which the WireFlits/WireBytes accounting preserves.
type Flit struct {
	_   [0]uint64 // force 8-byte alignment for the word-wise checksum
	raw [flitRawSize]byte
}

// flitChecksum hashes the 88-byte flit body 8 bytes at a time
// (binary.LittleEndian.Uint64 loads): four independent rotate-xor lanes
// stride across the 11 body words so the accumulation is GF(2)-linear —
// any single-bit corruption flips at least one state bit, exactly the
// guarantee a CRC gives — while keeping the dependency chains short
// enough that a flit costs single-digit nanoseconds to seal or check.
// A multiplicative avalanche (splitmix64 finalizer) then folds the
// combined state to the stored 32 bits. This is the burst path's inner
// loop: every data beat is sealed once and checked once.
func flitChecksum(b *[flitRawSize]byte) uint32 {
	const rot = 13
	h0 := uint64(0x9E3779B97F4A7C15)
	h1 := uint64(0xC2B2AE3D27D4EB4F)
	h2 := uint64(0x165667B19E3779F9)
	h3 := uint64(0x27D4EB2F165667C5)
	h0 = (h0<<rot | h0>>(64-rot)) ^ binary.LittleEndian.Uint64(b[0:])
	h1 = (h1<<rot | h1>>(64-rot)) ^ binary.LittleEndian.Uint64(b[8:])
	h2 = (h2<<rot | h2>>(64-rot)) ^ binary.LittleEndian.Uint64(b[16:])
	h3 = (h3<<rot | h3>>(64-rot)) ^ binary.LittleEndian.Uint64(b[24:])
	h0 = (h0<<rot | h0>>(64-rot)) ^ binary.LittleEndian.Uint64(b[32:])
	h1 = (h1<<rot | h1>>(64-rot)) ^ binary.LittleEndian.Uint64(b[40:])
	h2 = (h2<<rot | h2>>(64-rot)) ^ binary.LittleEndian.Uint64(b[48:])
	h3 = (h3<<rot | h3>>(64-rot)) ^ binary.LittleEndian.Uint64(b[56:])
	h0 = (h0<<rot | h0>>(64-rot)) ^ binary.LittleEndian.Uint64(b[64:])
	h1 = (h1<<rot | h1>>(64-rot)) ^ binary.LittleEndian.Uint64(b[72:])
	h2 = (h2<<rot | h2>>(64-rot)) ^ binary.LittleEndian.Uint64(b[80:])
	h := h0 ^ (h1<<17 | h1>>47) ^ (h2<<31 | h2>>33) ^ (h3<<47 | h3>>17)
	h ^= h >> 33
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 29
	return uint32(h ^ h>>32)
}

// The codec. Each message kind has one encoder, which fills an unsealed
// flit, and one decoder, which parses a flit whose checksum has already
// been checked. Both are small enough for the compiler to inline, so
// the port's mover (move) runs them with no call per flit besides the
// checksum. The exported Encode*Into and Decode*Into are the same pairs
// with the seal and the check around them.

func (f *Flit) seal() {
	binary.LittleEndian.PutUint32(f.raw[flitBodySize:], flitChecksum(&f.raw))
}

// intact reports whether the flit's stored checksum matches its body.
func (f *Flit) intact() bool {
	return flitChecksum(&f.raw) == binary.LittleEndian.Uint32(f.raw[flitBodySize:])
}

// payload is the flit's 64-byte payload slot.
func (f *Flit) payload() *[LineSize]byte {
	return (*[LineSize]byte)(f.raw[flitHeaderSize:flitBodySize])
}

// putReq fills an unsealed request flit. Its payload is data placed at
// byte lo of an otherwise zero line: a whole line for MemWr, a
// MemWrPtl's bytes, and nil for MemRd, MemInv and a burst header.
func putReq(f *Flit, op MemOpcode, tag, lines uint16, addr, mask uint64, lo int, data []byte) {
	binary.LittleEndian.PutUint64(f.raw[0:8],
		flitKindReq|uint64(op)<<8|uint64(tag)<<16|uint64(lines)<<32)
	binary.LittleEndian.PutUint64(f.raw[8:16], addr)
	binary.LittleEndian.PutUint64(f.raw[16:24], mask)
	pl := f.payload()
	if len(data) != LineSize {
		*pl = [LineSize]byte{}
	}
	copy(pl[lo:], data)
}

// getReq parses a checked request flit into r. It reports false, and
// leaves r alone, for a flit of another kind or an unknown opcode.
func getReq(r *MemReq, f *Flit) bool {
	w0 := binary.LittleEndian.Uint64(f.raw[0:8])
	if uint8(w0) != flitKindReq || MemOpcode(w0>>8) > OpMemWrBurst {
		return false
	}
	r.Opcode = MemOpcode(w0 >> 8)
	r.Tag = uint16(w0 >> 16)
	r.Lines = uint16(w0 >> 32)
	r.Addr = binary.LittleEndian.Uint64(f.raw[8:16])
	r.Mask = binary.LittleEndian.Uint64(f.raw[16:24])
	r.Data = *f.payload()
	return true
}

// putResp fills an unsealed response flit: status and tag, with data as
// its payload, or a zero payload for nil, as a completion carries.
func putResp(f *Flit, op RespOpcode, tag uint16, data *[LineSize]byte) {
	binary.LittleEndian.PutUint64(f.raw[0:8], flitKindResp|uint64(op)<<8|uint64(tag)<<16)
	binary.LittleEndian.PutUint64(f.raw[8:16], 0)
	binary.LittleEndian.PutUint64(f.raw[16:24], 0)
	if data == nil {
		*f.payload() = [LineSize]byte{}
	} else {
		*f.payload() = *data
	}
}

// getResp parses a checked response flit's status and tag; ok is false
// for a flit of another kind or an unknown status. The payload stays on
// the flit.
func getResp(f *Flit) (op RespOpcode, tag uint16, ok bool) {
	w0 := binary.LittleEndian.Uint64(f.raw[0:8])
	op, tag = RespOpcode(w0>>8), uint16(w0>>16)
	return op, tag, uint8(w0) == flitKindResp && op <= RespErr
}

// putData fills an unsealed burst data beat: tag matches the burst
// header, seq is the line index within the burst.
func putData(f *Flit, tag uint16, seq uint32, payload *[LineSize]byte) {
	binary.LittleEndian.PutUint64(f.raw[0:8], flitKindData|uint64(tag)<<16)
	binary.LittleEndian.PutUint64(f.raw[8:16], uint64(seq))
	binary.LittleEndian.PutUint64(f.raw[16:24], 0)
	*f.payload() = *payload
}

// getData parses a checked data beat into out, returning the tag and
// sequence number in its header; ok is false, and out untouched, for a
// flit of another kind.
func getData(out *[LineSize]byte, f *Flit) (tag uint16, seq uint32, ok bool) {
	if f.raw[0] != flitKindData {
		return 0, 0, false
	}
	*out = *f.payload()
	return uint16(binary.LittleEndian.Uint64(f.raw[0:8]) >> 16), uint32(binary.LittleEndian.Uint64(f.raw[8:16])), true
}

// EncodeReqInto serialises a request into a caller-held flit buffer
// without allocating.
func EncodeReqInto(f *Flit, r *MemReq) {
	putReq(f, r.Opcode, r.Tag, r.Lines, r.Addr, r.Mask, 0, r.Data[:])
	f.seal()
}

// EncodeReq serialises a request.
func EncodeReq(r MemReq) Flit {
	var f Flit
	EncodeReqInto(&f, &r)
	return f
}

// EncodeRespInto serialises a response into a caller-held flit buffer
// without allocating.
func EncodeRespInto(f *Flit, r *MemResp) {
	putResp(f, r.Opcode, r.Tag, &r.Data)
	f.seal()
}

// EncodeResp serialises a response.
func EncodeResp(r MemResp) Flit {
	var f Flit
	EncodeRespInto(&f, &r)
	return f
}

// EncodeDataInto serialises one burst data beat: tag matches the burst
// header, seq is the line index within the burst.
func EncodeDataInto(f *Flit, tag uint16, seq uint32, payload *[LineSize]byte) {
	putData(f, tag, seq, payload)
	f.seal()
}

// ErrFlit reports a malformed or corrupted flit.
type ErrFlit struct{ Reason string }

func (e *ErrFlit) Error() string { return "cxl: bad flit: " + e.Reason }

var errChecksum = &ErrFlit{Reason: "checksum mismatch"}

// flitKindNames names flit kinds in decode errors.
var flitKindNames = [...]string{
	flitKindReq:   "request",
	flitKindResp:  "response",
	flitKindData:  "data",
	flitKindBISnp: "BISnp",
	flitKindBIRsp: "BIRsp",
}

// badFlit is the decode error for an intact flit that a decoder of kind
// rejected: one of another kind, or one with an unknown opcode.
func badFlit(f *Flit, kind uint8) error {
	if f.raw[0] != kind {
		return &ErrFlit{Reason: "not a " + flitKindNames[kind] + " flit"}
	}
	what := flitKindNames[kind] + " "
	if kind == flitKindReq {
		what = ""
	}
	return &ErrFlit{Reason: fmt.Sprintf("unknown %sopcode %d", what, f.raw[1])}
}

// DecodeReqInto parses a request flit into r without allocating.
func DecodeReqInto(r *MemReq, f *Flit) error {
	if !f.intact() {
		return errChecksum
	}
	if !getReq(r, f) {
		return badFlit(f, flitKindReq)
	}
	return nil
}

// DecodeReq parses a request flit.
func DecodeReq(f Flit) (MemReq, error) {
	var r MemReq
	if err := DecodeReqInto(&r, &f); err != nil {
		return MemReq{}, err
	}
	return r, nil
}

// DecodeRespInto parses a response flit, status, tag and payload, into
// r without allocating.
func DecodeRespInto(r *MemResp, f *Flit) error {
	if !f.intact() {
		return errChecksum
	}
	op, tag, ok := getResp(f)
	if !ok {
		return badFlit(f, flitKindResp)
	}
	r.Opcode, r.Tag, r.Data = op, tag, *f.payload()
	return nil
}

// DecodeResp parses a response flit.
func DecodeResp(f Flit) (MemResp, error) {
	var r MemResp
	if err := DecodeRespInto(&r, &f); err != nil {
		return MemResp{}, err
	}
	return r, nil
}

// DecodeDataInto parses a burst data beat into out, returning the tag
// and sequence number carried in its header.
func DecodeDataInto(out *[LineSize]byte, f *Flit) (tag uint16, seq uint32, err error) {
	if !f.intact() {
		return 0, 0, errChecksum
	}
	tag, seq, ok := getData(out, f)
	if !ok {
		return 0, 0, badFlit(f, flitKindData)
	}
	return tag, seq, nil
}

// Corrupt flips one payload bit; used by fault-injection tests.
func (f Flit) Corrupt(bit int) Flit {
	idx := flitHeaderSize + (bit/8)%LineSize
	f.raw[idx] ^= 1 << (bit % 8)
	return f
}

// WireFlits returns how many 68-byte flits a message of the given opcode
// occupies on the link: header-only messages take one flit, full-line
// data messages take the header flit plus a data flit.
func WireFlits(hasData bool) int {
	if hasData {
		return 2
	}
	return 1
}

// WireBytes returns the wire cost in bytes of one request/response pair
// moving a full line in the given direction. Reads cost a 1-flit request
// and a 2-flit data response; writes cost a 2-flit request and a 1-flit
// completion. This 3×68/64 ≈ 3.19 bytes-per-payload-byte round-trip
// framing is what derates the Gen5 raw 64 GB/s toward the effective caps
// used by the performance model.
func WireBytes(op MemOpcode) int {
	switch op {
	case OpMemRd:
		return FlitSize * (WireFlits(false) + WireFlits(true))
	case OpMemWr, OpMemWrPtl:
		return FlitSize * (WireFlits(true) + WireFlits(false))
	default:
		return FlitSize * 2
	}
}

// BurstWireBytes returns the round-trip wire cost of one burst of the
// given line count: a header flit, lines all-data flits, and a
// completion/response header — (2+lines)×68 in either direction.
func BurstWireBytes(lines int) int {
	return FlitSize * (2 + lines)
}

// ProtocolEfficiency is the payload fraction of wire traffic for a
// full-line transfer (64 payload bytes over three 68-byte flits per
// round trip, in the bottleneck direction two flits carry it): the
// useful-byte fraction of the data-direction traffic.
func ProtocolEfficiency() float64 {
	return float64(LineSize) / float64(2*FlitSize)
}

// BurstProtocolEfficiency is the payload fraction of round-trip wire
// traffic for an n-line burst: n×64 useful bytes over (2+n) flits. At
// MaxBurstLines this approaches LineSize/FlitSize ≈ 0.94, the all-data-
// flit streaming efficiency §2.2 argues the CXL standard permits.
func BurstProtocolEfficiency(lines int) float64 {
	if lines < 1 {
		lines = 1
	}
	return float64(lines*LineSize) / float64(BurstWireBytes(lines))
}

// --- Back-invalidate channel (CXL 3.0) -----------------------------------
//
// CXL 3.0 adds a subordinate-to-master Back-Invalidate Snoop channel
// (S2M BISnp) and its master-to-subordinate response (M2S BIRsp): a
// Type-3 device that tracks coherency state — a snoop-filter directory
// over shared HDM — can recall a line from the host that caches it
// before granting a conflicting access to another host. Dirty data does
// NOT ride in the response: as on real hardware, the snooped host
// writes the line back through its normal CXL.mem write path and the
// BIRsp carries only the resulting state, which is why BIRsp is a
// header-only message.

// BISnpOpcode enumerates the snoop flavours the directory issues.
type BISnpOpcode uint8

const (
	// SnpData asks the owner to write back any dirty copy and
	// downgrade to Shared (another host wants to read).
	SnpData BISnpOpcode = iota
	// SnpInv asks the host to write back any dirty copy and drop the
	// line entirely (another host wants exclusive ownership).
	SnpInv
)

func (o BISnpOpcode) String() string {
	switch o {
	case SnpData:
		return "BISnpData"
	case SnpInv:
		return "BISnpInv"
	default:
		return fmt.Sprintf("BISnpOpcode(%d)", uint8(o))
	}
}

// BISnp is one S2M back-invalidate snoop. Addr is the device-relative
// byte address of the 64-byte line (every host maps the shared segment
// at a different HPA; the device's directory speaks DPA).
type BISnp struct {
	Opcode BISnpOpcode
	Addr   uint64
	Tag    uint16
}

// BIRspOpcode enumerates the host's snoop responses.
type BIRspOpcode uint8

const (
	// RspIHit — the host held the line and has invalidated it (any
	// dirty data was written back before this response was sent).
	RspIHit BIRspOpcode = iota
	// RspSHit — the host held the line and retains a Shared copy
	// (SnpData downgrade; dirty data written back first).
	RspSHit
	// RspMiss — the host no longer holds the line. If the directory
	// still records it as a holder, a victim write-back is in flight
	// and the directory must wait for the matching release before
	// granting the conflicting access.
	RspMiss
	// RspRetry — the host could not service the snoop (its dirty
	// write-back failed); its cached state is UNCHANGED and the
	// directory must abort the conflicting grant rather than assume
	// the line was surrendered (CXL's BI conflict/retry flow).
	RspRetry
)

func (o BIRspOpcode) String() string {
	switch o {
	case RspIHit:
		return "BIRspIHit"
	case RspSHit:
		return "BIRspSHit"
	case RspMiss:
		return "BIRspMiss"
	case RspRetry:
		return "BIRspRetry"
	default:
		return fmt.Sprintf("BIRspOpcode(%d)", uint8(o))
	}
}

// BIRsp is one M2S back-invalidate response.
type BIRsp struct {
	Opcode BIRspOpcode
	Tag    uint16
	// Dirty reports that the host wrote modified data back before
	// responding (directory bookkeeping / statistics).
	Dirty bool
}

// EncodeBISnpInto serialises a snoop into a caller-held flit without
// allocating.
func EncodeBISnpInto(f *Flit, s *BISnp) {
	binary.LittleEndian.PutUint64(f.raw[0:8],
		flitKindBISnp|uint64(s.Opcode)<<8|uint64(s.Tag)<<16)
	binary.LittleEndian.PutUint64(f.raw[8:16], s.Addr)
	binary.LittleEndian.PutUint64(f.raw[16:24], 0)
	*f.payload() = [LineSize]byte{}
	f.seal()
}

// DecodeBISnpInto parses a snoop flit into s without allocating.
func DecodeBISnpInto(s *BISnp, f *Flit) error {
	if !f.intact() {
		return errChecksum
	}
	w0 := binary.LittleEndian.Uint64(f.raw[0:8])
	if uint8(w0) != flitKindBISnp || BISnpOpcode(w0>>8) > SnpInv {
		return badFlit(f, flitKindBISnp)
	}
	s.Opcode = BISnpOpcode(w0 >> 8)
	s.Tag = uint16(w0 >> 16)
	s.Addr = binary.LittleEndian.Uint64(f.raw[8:16])
	return nil
}

// EncodeBIRspInto serialises a snoop response into a caller-held flit
// without allocating.
func EncodeBIRspInto(f *Flit, r *BIRsp) {
	var dirty uint64
	if r.Dirty {
		dirty = 1
	}
	binary.LittleEndian.PutUint64(f.raw[0:8],
		flitKindBIRsp|uint64(r.Opcode)<<8|uint64(r.Tag)<<16|dirty<<32)
	binary.LittleEndian.PutUint64(f.raw[8:16], 0)
	binary.LittleEndian.PutUint64(f.raw[16:24], 0)
	*f.payload() = [LineSize]byte{}
	f.seal()
}

// DecodeBIRspInto parses a snoop-response flit into r without
// allocating.
func DecodeBIRspInto(r *BIRsp, f *Flit) error {
	if !f.intact() {
		return errChecksum
	}
	w0 := binary.LittleEndian.Uint64(f.raw[0:8])
	if uint8(w0) != flitKindBIRsp || BIRspOpcode(w0>>8) > RspRetry {
		return badFlit(f, flitKindBIRsp)
	}
	r.Opcode = BIRspOpcode(w0 >> 8)
	r.Tag = uint16(w0 >> 16)
	r.Dirty = w0>>32&1 == 1
	return nil
}

// Bytes returns the raw wire form of the flit (header, payload and
// checksum). The slice aliases the flit's storage.
func (f *Flit) Bytes() []byte { return f.raw[:] }

// FlitFromBytes reconstructs a flit from raw wire bytes, as a receiver
// deserialising from a physical link would. Short input leaves the
// remainder zero; excess input is truncated. The checksum is NOT
// validated here — decode does that, exactly as for a flit that
// crossed the modelled wire.
func FlitFromBytes(b []byte) Flit {
	var f Flit
	copy(f.raw[:], b)
	return f
}
