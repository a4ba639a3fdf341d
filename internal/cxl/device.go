package cxl

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"cxlpmem/internal/memdev"
	"cxlpmem/internal/units"
)

// DeviceType is the CXL 1.1 device taxonomy (§1.3): accelerators with
// cache only (Type 1), cache with attached memory (Type 2), and memory
// expansion (Type 3).
type DeviceType int

const (
	// Type1 is a caching accelerator without HDM.
	Type1 DeviceType = 1
	// Type2 is an accelerator with attached device memory.
	Type2 DeviceType = 2
	// Type3 is a memory-expansion device — the paper's prototype.
	Type3 DeviceType = 3
)

func (t DeviceType) String() string { return fmt.Sprintf("Type%d", int(t)) }

// Endpoint is any CXL device that can be attached to a root port (or a
// switch downstream port). Type 1 devices answer every CXL.mem request
// with RespErr.
type Endpoint interface {
	// Name identifies the endpoint.
	Name() string
	// DeviceType returns the CXL device class.
	DeviceType() DeviceType
	// Config exposes the CXL.io configuration space.
	Config() *ConfigSpace
	// serve is the CXL.mem transaction layer, the device's one entry:
	// it services the request decoded into fr.req and returns the
	// response status, which echoes fr.req.Tag. A line op (MemRd,
	// MemWr, MemWrPtl, MemInv) writes from fr.req.Data and reads into
	// fr.line. A burst header (OpMemRdBurst or OpMemWrBurst) moves
	// fr.wire, req.Lines×LineSize bytes: the data to store for a write,
	// the buffer to fill for a read; a failing burst has no partial
	// effects. The caller owns fr: serve must not keep it, or fr.wire,
	// after returning.
	serve(fr *frame) RespOpcode
}

// MemStats counts CXL.mem transactions at an endpoint. Reads/Writes
// count single-line requests; bursts are counted separately (one
// ReadBursts/WriteBursts increment per burst header, with BurstLines
// accumulating the data-flit total). LineFallbacks counts bursts that
// could not use a single media access and degraded to per-line decode —
// a span crossing decoder windows. A persistently non-zero rate under
// bulk traffic means a misconfigured window is silently costing ~50×;
// interleaved windows served by the strided path do not count here.
type MemStats struct {
	Reads         atomic.Int64
	Writes        atomic.Int64
	PartialWrites atomic.Int64
	Invalidates   atomic.Int64
	Errors        atomic.Int64
	ReadBursts    atomic.Int64
	WriteBursts   atomic.Int64
	BurstLines    atomic.Int64
	LineFallbacks atomic.Int64
}

// Type3Device is a CXL memory-expansion endpoint backed by a media
// device (the prototype's DDR4 "HDM subsystem", §2.2).
type Type3Device struct {
	name  string
	media memdev.Device
	cfg   ConfigSpace
	stats MemStats

	mu       sync.RWMutex
	decoders []*HDMDecoder
	poisoned func(dpa, n uint64) bool
	cut      func(dpa uint64) bool
	// snap caches an immutable copy of the decoder list and hooks:
	// every transaction reads it, and must not pay a read-lock round
	// trip for configuration that changes only at enumeration time.
	snap atomic.Pointer[deviceSnapshot]
}

// deviceSnapshot is the immutable hot-path view of the device config:
// the decoders, the poison probe (nil when no RAS hook is installed)
// and the media every data-path access reads and writes: the device's
// own, or cutMedia in front of it while a power cut is armed.
type deviceSnapshot struct {
	decoders []*HDMDecoder
	poisoned func(dpa, n uint64) bool
	media    memdev.Device
}

// publish refreshes the hot-path snapshot; callers hold d.mu.
func (d *Type3Device) publish() {
	media := d.media
	if d.cut != nil {
		media = cutMedia{Device: d.media, cut: d.cut}
	}
	d.snap.Store(&deviceSnapshot{decoders: d.decoders, poisoned: d.poisoned, media: media})
}

// cutMedia is a device's media as the data path sees it while a power
// cut is armed: a write the cut reports lost never reaches the media,
// and WriteAt reports it done, as a host sees a device that lost power.
type cutMedia struct {
	memdev.Device
	cut func(dpa uint64) bool
}

func (m cutMedia) WriteAt(p []byte, off int64) error {
	if m.cut(uint64(off)) {
		return nil
	}
	return m.Device.WriteAt(p, off)
}

// snapshot returns the current hot-path view; NewType3 publishes the
// first.
func (d *Type3Device) snapshot() *deviceSnapshot { return d.snap.Load() }

// decode resolves hpa through the first decoder, in programming order,
// whose window maps it.
func (s *deviceSnapshot) decode(hpa uint64) (uint64, bool) {
	for _, dec := range s.decoders {
		if dpa, ok := dec.Decode(hpa); ok {
			return dpa, true
		}
	}
	return 0, false
}

// decodeSpan is decode for the span [hpa, hpa+n) of a burst: ok only
// when the span maps to one contiguous DPA range through the decoder
// decode picks for hpa, so burst and line transactions always agree on
// the target DPA. Two shapes qualify:
//
//   - a plain decoder whose window covers the whole HPA span, and
//   - an interleaved decoder, where a burst names n/LineSize
//     consecutive *target-owned* lines starting at hpa (granule-strided
//     in HPA space). Owned lines enumerate the target's DPA share in
//     order, so the burst is one contiguous media access — this is what
//     keeps interleaved windows off the per-line path entirely.
func (s *deviceSnapshot) decodeSpan(hpa, n uint64) (uint64, bool) {
	for _, dec := range s.decoders {
		if dpa, ok := dec.Decode(hpa); ok {
			if dec.InterleaveWays <= 1 {
				return dpa, hpa+n <= dec.Base+dec.Size
			}
			return dpa, dpa+n <= dec.DPABase+dec.Share()
		}
	}
	return 0, false
}

// NewType3 builds a memory-expansion endpoint over the given media. The
// config space is initialised with the CXL class code and a device DVSEC
// advertising CXL.io + CXL.mem.
func NewType3(name string, vendor, deviceID uint16, media memdev.Device) (*Type3Device, error) {
	if media == nil {
		return nil, fmt.Errorf("cxl: %s: nil media", name)
	}
	d := &Type3Device{name: name, media: media}
	d.publish()
	d.cfg.InitIdentity(vendor, deviceID, ClassMemoryCXL)
	d.cfg.InstallCXLDVSEC(CapIO|CapMem, uint64(media.Capacity().Bytes()))
	return d, nil
}

// Name implements Endpoint.
func (d *Type3Device) Name() string { return d.name }

// DeviceType implements Endpoint.
func (d *Type3Device) DeviceType() DeviceType { return Type3 }

// Config implements Endpoint.
func (d *Type3Device) Config() *ConfigSpace { return &d.cfg }

// Media exposes the backing device (e.g. for battery/persistence checks).
func (d *Type3Device) Media() memdev.Device { return d.media }

// Stats exposes transaction counters.
func (d *Type3Device) Stats() *MemStats { return &d.stats }

// ProgramDecoder installs and commits an HDM decoder. Multiple decoders
// may cover disjoint HPA windows (the prototype exposes the same memory
// volume to two NUMA nodes through two windows, §2.2).
func (d *Type3Device) ProgramDecoder(dec *HDMDecoder) error {
	if err := dec.Commit(); err != nil {
		return err
	}
	maxDPA := dec.DPABase + dec.Size/uint64(dec.InterleaveWays)
	if dec.InterleaveWays <= 1 {
		maxDPA = dec.DPABase + dec.Size
	}
	if maxDPA > uint64(d.media.Capacity().Bytes()) {
		return fmt.Errorf("cxl: %s: decoder %v exceeds media capacity %v", d.name, dec, d.media.Capacity())
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.decoders = append(d.decoders, dec)
	d.publish()
	return nil
}

// Decoders returns the committed decoders.
func (d *Type3Device) Decoders() []*HDMDecoder {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]*HDMDecoder, len(d.decoders))
	copy(out, d.decoders)
	return out
}

// poisonedAt reports whether any line of [dpa, dpa+n) is poisoned.
func (s *deviceSnapshot) poisonedAt(dpa, n uint64) bool {
	return s.poisoned != nil && s.poisoned(dpa, n)
}

// poisonHit charges a demand access that hit poison. Real CXL returns
// the data with poison signalling; here it is an error response the
// host must handle (RAS path), and since the access consumed the error
// it counts as uncorrectable.
func (d *Type3Device) poisonHit() {
	d.media.Stats().Uncorrectable.Add(1)
	d.stats.Errors.Add(1)
}

// access is the media step full-line reads and writes share — single
// lines and bursts alike — once their span has decoded and passed the
// poison probe: one read or write of the snapshot's media, charging
// one error on failure. The caller charges success.
func (d *Type3Device) access(s *deviceSnapshot, write bool, dpa uint64, p []byte) bool {
	var err error
	if write {
		err = s.media.WriteAt(p, int64(dpa))
	} else {
		err = s.media.ReadAt(p, int64(dpa))
	}
	if err != nil {
		d.stats.Errors.Add(1)
		return false
	}
	return true
}

// HandleMem services one line request (MemRd, MemWr, MemWrPtl, MemInv)
// through serve, the entry the port's line transactions take.
func (d *Type3Device) HandleMem(req MemReq) MemResp {
	resp := MemResp{Tag: req.Tag}
	resp.Opcode = d.handle(&req, nil, &resp.Data)
	return resp
}

// HandleMemBurst services one burst header (OpMemRdBurst or
// OpMemWrBurst) over payload through serve, as the port's bursts do.
// payload holds req.Lines×LineSize bytes: the data to store for a
// write, the buffer to fill for a read. A failing burst has no partial
// effects.
func (d *Type3Device) HandleMemBurst(req MemReq, payload []byte) MemResp {
	if req.Opcode != OpMemRdBurst && req.Opcode != OpMemWrBurst {
		d.stats.Errors.Add(1)
		return MemResp{Tag: req.Tag, Opcode: RespErr}
	}
	return MemResp{Tag: req.Tag, Opcode: d.handle(&req, payload, nil)}
}

// handle runs req through serve on a pooled frame and returns the
// status; a line read's line lands in line.
func (d *Type3Device) handle(req *MemReq, payload []byte, line *[LineSize]byte) RespOpcode {
	fr := framePool.Get().(*frame)
	fr.req, fr.wire = *req, payload
	st := d.serve(fr)
	if st == RespMemData && line != nil {
		*line = fr.line
	}
	fr.wire = nil
	framePool.Put(fr)
	return st
}

// serve implements Endpoint: it turns the M2S request in fr into an
// HDM access against the media, reading from and into fr directly.
func (d *Type3Device) serve(fr *frame) RespOpcode {
	req := &fr.req
	if req.Opcode == OpMemRdBurst || req.Opcode == OpMemWrBurst {
		return d.burst(req, fr.wire)
	}
	s := d.snapshot()
	dpa, ok := s.decode(req.Addr)
	if !ok || fr.wire != nil {
		// Unmapped, or a line op that arrived with burst data.
		d.stats.Errors.Add(1)
		return RespErr
	}
	if s.poisonedAt(dpa, uint64(LineSize)) {
		d.poisonHit()
		return RespErr
	}
	switch req.Opcode {
	case OpMemRd:
		if d.access(s, false, dpa, fr.line[:]) {
			d.stats.Reads.Add(1)
			return RespMemData
		}
	case OpMemWr:
		if d.access(s, true, dpa, req.Data[:]) {
			d.stats.Writes.Add(1)
			return RespCmp
		}
	case OpMemWrPtl:
		// Only the masked bytes reach the media, one write per run of
		// set mask bits and no read of the line, so writers of disjoint
		// bytes of one line never undo each other.
		var err error
		for mask := req.Mask; mask != 0 && err == nil; {
			lo := bits.TrailingZeros64(mask)
			n := bits.TrailingZeros64(^(mask >> lo))
			err = s.media.WriteAt(req.Data[lo:lo+n], int64(dpa)+int64(lo))
			mask &^= (1<<n - 1) << lo
		}
		if err == nil {
			d.stats.PartialWrites.Add(1)
			return RespCmp
		}
		d.stats.Errors.Add(1)
	case OpMemInv:
		d.stats.Invalidates.Add(1)
		return RespCmp
	default:
		// An unknown opcode is a protocol error.
		d.stats.Errors.Add(1)
	}
	return RespErr
}

// burst services a multi-line burst with a single media access when
// the span maps to one contiguous DPA range through one HDM decoder —
// plain windows and interleaved windows alike (an interleaved burst
// names consecutive target-owned lines; see decodeSpan) — and line by
// line only across decoder boundaries, counting each such fallback in
// MemStats.LineFallbacks. A burst touching any poisoned or unmapped
// line fails whole: no partial effects reach the media.
func (d *Type3Device) burst(req *MemReq, payload []byte) RespOpcode {
	lines := int(req.Lines)
	if lines < 1 || lines > MaxBurstLines || len(payload) != lines*LineSize || !lineAligned(req.Addr) {
		d.stats.Errors.Add(1)
		return RespErr
	}
	write := req.Opcode == OpMemWrBurst
	s := d.snapshot()
	var ok bool
	if dpa, contiguous := s.decodeSpan(req.Addr, uint64(len(payload))); !contiguous {
		ok = d.burstByLine(s, write, req.Addr, payload)
	} else if s.poisonedAt(dpa, uint64(len(payload))) {
		d.poisonHit()
	} else {
		ok = d.access(s, write, dpa, payload)
	}
	if !ok {
		return RespErr
	}
	d.stats.BurstLines.Add(int64(lines))
	if write {
		d.stats.WriteBursts.Add(1)
		return RespCmp
	}
	d.stats.ReadBursts.Add(1)
	return RespMemData
}

// burstByLine serves a burst whose span does not map to one contiguous
// DPA range: every line is decoded and probed before the first media
// access, so a failing burst has no partial effects.
func (d *Type3Device) burstByLine(s *deviceSnapshot, write bool, hpa uint64, payload []byte) bool {
	d.stats.LineFallbacks.Add(1)
	var dpas [MaxBurstLines]uint64
	lines := len(payload) / LineSize
	for i := range lines {
		dpa, ok := s.decode(hpa + uint64(i*LineSize))
		if !ok {
			d.stats.Errors.Add(1)
			return false
		}
		if s.poisonedAt(dpa, uint64(LineSize)) {
			d.poisonHit()
			return false
		}
		dpas[i] = dpa
	}
	for i, dpa := range dpas[:lines] {
		if !d.access(s, write, dpa, payload[i*LineSize:(i+1)*LineSize]) {
			return false
		}
	}
	return true
}

// SetPoisonChecker installs the RAS hook consulted on every HDM access
// (the device Mailbox registers its poison list here): f reports
// whether any line of [dpa, dpa+n) is poisoned. A line op asks about
// its own line, a burst over one contiguous DPA span asks once about
// the whole span, and a burst served line by line asks per line.
func (d *Type3Device) SetPoisonChecker(f func(dpa, n uint64) bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.poisoned = f
	d.publish()
}

// SetPowerCut installs the power-loss hook every media write of the
// data path asks before it reaches the media — a full line, one run of
// a MemWrPtl's mask, a burst (the chaos engine's power-cut action arms
// it): cut reports whether power is lost for the write at dpa. A write
// it reports lost is dropped, and the device answers as if it had
// landed, as a host sees a power loss. nil removes the hook, and with
// it the hook's only cost to the data path.
func (d *Type3Device) SetPowerCut(cut func(dpa uint64) bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cut = cut
	d.publish()
}

func (d *Type3Device) String() string {
	return fmt.Sprintf("%s: CXL Type3, %s HDM (%s)", d.name, d.media.Capacity(), d.media.Name())
}

// Type1Device is a caching accelerator: CXL.cache + CXL.io, no HDM. It
// exists so enumeration can classify mixed hierarchies; the paper's
// experiments use Type 3 only.
type Type1Device struct {
	name string
	cfg  ConfigSpace
}

// NewType1 builds a cache-only accelerator endpoint.
func NewType1(name string, vendor, deviceID uint16) *Type1Device {
	d := &Type1Device{name: name}
	d.cfg.InitIdentity(vendor, deviceID, 0x120000) // processing accelerator
	d.cfg.InstallCXLDVSEC(CapIO|CapCache, 0)
	return d
}

// Name implements Endpoint.
func (d *Type1Device) Name() string { return d.name }

// DeviceType implements Endpoint.
func (d *Type1Device) DeviceType() DeviceType { return Type1 }

// Config implements Endpoint.
func (d *Type1Device) Config() *ConfigSpace { return &d.cfg }

// serve implements Endpoint and always fails: Type 1 devices expose no
// HDM.
func (d *Type1Device) serve(*frame) RespOpcode { return RespErr }

// Type2Device is an accelerator with attached memory: it embeds the
// Type-3 HDM machinery and additionally advertises CXL.cache.
type Type2Device struct {
	*Type3Device
}

// NewType2 builds an accelerator-with-memory endpoint.
func NewType2(name string, vendor, deviceID uint16, media memdev.Device) (*Type2Device, error) {
	t3, err := NewType3(name, vendor, deviceID, media)
	if err != nil {
		return nil, err
	}
	d := &Type2Device{Type3Device: t3}
	d.cfg.InstallCXLDVSEC(CapIO|CapCache|CapMem, uint64(media.Capacity().Bytes()))
	return d, nil
}

// DeviceType implements Endpoint.
func (d *Type2Device) DeviceType() DeviceType { return Type2 }

// lineAligned reports whether an access is aligned to the CXL line size.
func lineAligned(addr uint64) bool { return addr%uint64(units.CacheLine) == 0 }
