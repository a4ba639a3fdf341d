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
// switch downstream port). The two Handle methods are the CXL.mem
// transaction layer; responses echo the request's tag. Type 1 devices
// answer every request with RespErr.
type Endpoint interface {
	// Name identifies the endpoint.
	Name() string
	// DeviceType returns the CXL device class.
	DeviceType() DeviceType
	// Config exposes the CXL.io configuration space.
	Config() *ConfigSpace
	// HandleMem services one line request (MemRd, MemWr, MemWrPtl,
	// MemInv).
	HandleMem(MemReq) MemResp
	// HandleMemBurst services one burst header (OpMemRdBurst or
	// OpMemWrBurst). payload holds req.Lines×LineSize bytes: the data to
	// store for a write, the buffer to fill for a read. A failing burst
	// has no partial effects.
	HandleMemBurst(req MemReq, payload []byte) MemResp
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

	mu           sync.RWMutex
	decoders     []*HDMDecoder
	poisoned     func(dpa uint64) bool
	poisonedSpan func(dpa, n uint64) bool
	// snap caches an immutable copy of the decoder list and RAS hooks:
	// every transaction reads it, and must not pay a read-lock round
	// trip for configuration that changes only at enumeration time.
	snap atomic.Pointer[deviceSnapshot]
}

// deviceSnapshot is the immutable hot-path view of the device config:
// the decoders and one span-granular poison probe, nil when no RAS hook
// is installed.
type deviceSnapshot struct {
	decoders []*HDMDecoder
	poisoned func(dpa, n uint64) bool
}

// noConfig is the snapshot of a device nothing has been programmed on.
var noConfig deviceSnapshot

// publish refreshes the hot-path snapshot; callers hold d.mu. The probe
// is the span checker when one is installed, otherwise the per-line
// checker applied line by line.
func (d *Type3Device) publish() {
	s := &deviceSnapshot{decoders: d.decoders, poisoned: d.poisonedSpan}
	if line := d.poisoned; s.poisoned == nil && line != nil {
		s.poisoned = func(dpa, n uint64) bool {
			for off := uint64(0); off < n; off += uint64(LineSize) {
				if line(dpa + off) {
					return true
				}
			}
			return false
		}
	}
	d.snap.Store(s)
}

// snapshot returns the current hot-path view.
func (d *Type3Device) snapshot() *deviceSnapshot {
	if s := d.snap.Load(); s != nil {
		return s
	}
	return &noConfig
}

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

// linePool recycles line staging buffers so HandleMem can call the media
// interface without forcing its request/response to escape to the heap —
// the single-line data path is allocation-free in steady state.
var linePool = sync.Pool{New: func() any { return new([LineSize]byte) }}

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
// poison probe: one media read or write, charging one error on failure.
// The caller charges success.
func (d *Type3Device) access(write bool, dpa uint64, p []byte) bool {
	var err error
	if write {
		err = d.media.WriteAt(p, int64(dpa))
	} else {
		err = d.media.ReadAt(p, int64(dpa))
	}
	if err != nil {
		d.stats.Errors.Add(1)
		return false
	}
	return true
}

// HandleMem implements the CXL.mem transaction layer for one line
// request: it turns an M2S request into an HDM access against the media.
func (d *Type3Device) HandleMem(req MemReq) MemResp {
	resp := MemResp{Tag: req.Tag, Opcode: RespErr}
	s := d.snapshot()
	dpa, ok := s.decode(req.Addr)
	if !ok {
		d.stats.Errors.Add(1)
		return resp
	}
	if s.poisonedAt(dpa, uint64(LineSize)) {
		d.poisonHit()
		return resp
	}
	switch req.Opcode {
	case OpMemRd, OpMemWr, OpMemWrPtl:
		// The line stages through a pooled buffer rather than req.Data
		// or resp.Data directly: handing either to the media interface
		// would force it onto the heap.
		line := linePool.Get().(*[LineSize]byte)
		switch req.Opcode {
		case OpMemRd:
			if d.access(false, dpa, line[:]) {
				resp.Data = *line
				d.stats.Reads.Add(1)
				resp.Opcode = RespMemData
			}
		case OpMemWr:
			*line = req.Data
			if d.access(true, dpa, line[:]) {
				d.stats.Writes.Add(1)
				resp.Opcode = RespCmp
			}
		default:
			// Only the masked bytes reach the media, one write per run
			// of set mask bits and no read of the line, so writers of
			// disjoint bytes of one line never undo each other.
			*line = req.Data
			var err error
			for mask := req.Mask; mask != 0 && err == nil; {
				lo := bits.TrailingZeros64(mask)
				n := bits.TrailingZeros64(^(mask >> lo))
				err = d.media.WriteAt(line[lo:lo+n], int64(dpa)+int64(lo))
				mask &^= (1<<n - 1) << lo
			}
			if err != nil {
				d.stats.Errors.Add(1)
			} else {
				d.stats.PartialWrites.Add(1)
				resp.Opcode = RespCmp
			}
		}
		linePool.Put(line)
	case OpMemInv:
		d.stats.Invalidates.Add(1)
		resp.Opcode = RespCmp
	default:
		// Burst opcodes carry their payload in dedicated data flits and
		// must arrive through HandleMemBurst; seeing one here is a
		// protocol error, as is any unknown opcode.
		d.stats.Errors.Add(1)
	}
	return resp
}

// HandleMemBurst services a multi-line burst with a single media access
// when the span maps to one contiguous DPA range through one HDM
// decoder — plain windows and interleaved windows alike (an interleaved
// burst names consecutive target-owned lines; see decodeSpan) — and
// line by line only across decoder boundaries, counting each such
// fallback in MemStats.LineFallbacks. A burst touching any poisoned or
// unmapped line fails whole: no partial effects reach the media.
func (d *Type3Device) HandleMemBurst(req MemReq, payload []byte) MemResp {
	resp := MemResp{Tag: req.Tag, Opcode: RespErr}
	lines := int(req.Lines)
	if req.Opcode != OpMemRdBurst && req.Opcode != OpMemWrBurst ||
		lines < 1 || lines > MaxBurstLines ||
		len(payload) != lines*LineSize || !lineAligned(req.Addr) {
		d.stats.Errors.Add(1)
		return resp
	}
	write := req.Opcode == OpMemWrBurst
	s := d.snapshot()
	var ok bool
	if dpa, contiguous := s.decodeSpan(req.Addr, uint64(len(payload))); !contiguous {
		ok = d.burstByLine(s, write, req.Addr, payload)
	} else if s.poisonedAt(dpa, uint64(len(payload))) {
		d.poisonHit()
	} else {
		ok = d.access(write, dpa, payload)
	}
	if !ok {
		return resp
	}
	d.stats.BurstLines.Add(int64(lines))
	if write {
		d.stats.WriteBursts.Add(1)
		resp.Opcode = RespCmp
	} else {
		d.stats.ReadBursts.Add(1)
		resp.Opcode = RespMemData
	}
	return resp
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
		if !d.access(write, dpa, payload[i*LineSize:(i+1)*LineSize]) {
			return false
		}
	}
	return true
}

// SetPoisonChecker installs the RAS hook consulted on every HDM access
// (the device Mailbox registers its poison list here).
func (d *Type3Device) SetPoisonChecker(f func(dpa uint64) bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.poisoned = f
	// The span checker is a companion of the per-line hook it was
	// installed with; a new per-line hook invalidates it, otherwise a
	// contiguous burst would consult the stale span hook and skip the
	// new checker entirely. Callers wanting the fast path back install
	// a matching span checker after this call.
	d.poisonedSpan = nil
	d.publish()
}

// SetPoisonSpanChecker installs an optional span-granular companion to
// the per-line RAS hook: it must report whether any line of
// [dpa, dpa+n) is poisoned. Burst transactions over a contiguous span
// consult it once instead of calling the per-line hook per line.
func (d *Type3Device) SetPoisonSpanChecker(f func(dpa, n uint64) bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.poisonedSpan = f
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

// HandleMem always fails: Type 1 devices expose no HDM.
func (d *Type1Device) HandleMem(req MemReq) MemResp {
	return MemResp{Tag: req.Tag, Opcode: RespErr}
}

// HandleMemBurst always fails, like HandleMem.
func (d *Type1Device) HandleMemBurst(req MemReq, _ []byte) MemResp {
	return d.HandleMem(req)
}

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
