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
// switch downstream port).
type Endpoint interface {
	// Name identifies the endpoint.
	Name() string
	// DeviceType returns the CXL device class.
	DeviceType() DeviceType
	// Config exposes the CXL.io configuration space.
	Config() *ConfigSpace
	// HandleMem services one CXL.mem request. Type 1 devices return
	// RespErr for all of them.
	HandleMem(MemReq) MemResp
}

// BurstHandler is implemented by endpoints that service multi-line burst
// requests (OpMemRdBurst/OpMemWrBurst) natively: one HDM media access
// for the whole burst instead of one per line. payload holds
// req.Lines×LineSize bytes — the data to store for a write burst, the
// buffer the device fills for a read burst. Ports fall back to per-line
// HandleMem calls for endpoints that do not implement it.
type BurstHandler interface {
	HandleMemBurst(req MemReq, payload []byte) MemResp
}

// QueueHandler is implemented by endpoints that service a flushed ring
// batch in one call: len(reqs) == len(resps), resps[i] answers reqs[i].
// Requests are independent line transactions (a failing request fails
// alone), but the device may exploit batch shape — Type3Device
// coalesces runs of adjacent same-opcode lines into single media
// accesses and charges its counters once per batch instead of once per
// line. Ports fall back to per-request HandleMem calls for endpoints
// that do not implement it.
type QueueHandler interface {
	HandleMemQueue(reqs []MemReq, resps []MemResp)
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
	// snap caches an immutable copy of the decoder list and RAS hook:
	// HandleMem runs on every line transaction and must not pay a
	// read-lock round trip for configuration that changes only at
	// enumeration time.
	snap atomic.Pointer[deviceSnapshot]
}

// deviceSnapshot is the immutable hot-path view of the device config.
type deviceSnapshot struct {
	decoders     []*HDMDecoder
	poisoned     func(dpa uint64) bool
	poisonedSpan func(dpa, n uint64) bool
}

// publish refreshes the hot-path snapshot; callers hold d.mu.
func (d *Type3Device) publish() {
	d.snap.Store(&deviceSnapshot{decoders: d.decoders, poisoned: d.poisoned, poisonedSpan: d.poisonedSpan})
}

// snapshot returns the current hot-path view, which may be empty.
func (d *Type3Device) snapshot() *deviceSnapshot {
	if s := d.snap.Load(); s != nil {
		return s
	}
	return &deviceSnapshot{}
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

// RemoveDecoder uninstalls a previously programmed decoder (matched by
// identity) and republishes the hot-path snapshot. Hot-add uses this to
// tear down the temporary spare windows an evacuation programmed, so a
// later evacuation onto the same device starts from a clean decoder
// list. In-flight transactions that already resolved an address through
// the removed decoder complete normally — they hold the old snapshot.
func (d *Type3Device) RemoveDecoder(dec *HDMDecoder) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, have := range d.decoders {
		if have == dec {
			d.decoders = append(append([]*HDMDecoder{}, d.decoders[:i]...), d.decoders[i+1:]...)
			d.publish()
			return nil
		}
	}
	return fmt.Errorf("cxl: %s: decoder %v not programmed here", d.name, dec)
}

// Decoders returns the committed decoders.
func (d *Type3Device) Decoders() []*HDMDecoder {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]*HDMDecoder, len(d.decoders))
	copy(out, d.decoders)
	return out
}

// decode finds the decoder owning hpa.
func (d *Type3Device) decode(hpa uint64) (uint64, bool) {
	for _, dec := range d.snapshot().decoders {
		if dpa, ok := dec.Decode(hpa); ok {
			return dpa, true
		}
	}
	return 0, false
}

// lookup resolves hpa and fetches the RAS hook from the lock-free
// snapshot — the per-transaction fast path.
func (d *Type3Device) lookup(hpa uint64) (dpa uint64, poisoned func(uint64) bool, ok bool) {
	s := d.snapshot()
	for _, dec := range s.decoders {
		if dpa, ok = dec.Decode(hpa); ok {
			poisoned = s.poisoned
			break
		}
	}
	return
}

// decodeSpan resolves a [hpa, hpa+n) span that maps to one contiguous
// DPA range through one decoder, fetching the RAS hook from the same
// snapshot. The decoder is chosen exactly as per-line decode() would
// choose it (first match in programming order), so burst and line
// transactions always agree on the target DPA. Two shapes qualify:
//
//   - a plain decoder whose window covers the whole HPA span, and
//   - an interleaved decoder, where a burst names n/LineSize
//     consecutive *target-owned* lines starting at hpa (granule-strided
//     in HPA space). Owned lines enumerate the target's DPA share in
//     order, so the burst is one contiguous media access — this is what
//     keeps interleaved windows off the per-line path entirely.
//
// ok is false only when the span overruns the window (or the target's
// share) — callers then fall back to per-line decode, counting the
// fallback.
func (d *Type3Device) decodeSpan(hpa, n uint64) (dpa uint64, s *deviceSnapshot, ok bool) {
	s = d.snapshot()
	for _, dec := range s.decoders {
		if candidate, hit := dec.Decode(hpa); hit {
			if dec.InterleaveWays <= 1 {
				if hpa+n <= dec.Base+dec.Size {
					dpa, ok = candidate, true
				}
			} else if candidate+n <= dec.DPABase+dec.Share() {
				dpa, ok = candidate, true
			}
			return
		}
	}
	return
}

// linePool recycles line staging buffers so HandleMem can call the media
// interface without forcing its request/response to escape to the heap —
// the single-line data path is allocation-free in steady state.
var linePool = sync.Pool{New: func() any { return new([LineSize]byte) }}

// HandleMem implements the CXL.mem transaction layer for a Type-3
// endpoint: it turns M2S requests into HDM accesses against the media.
func (d *Type3Device) HandleMem(req MemReq) MemResp {
	resp := MemResp{Tag: req.Tag}
	dpa, poisoned, ok := d.lookup(req.Addr)
	if !ok {
		d.stats.Errors.Add(1)
		resp.Opcode = RespErr
		return resp
	}
	if poisoned != nil && poisoned(dpa) {
		// Poisoned line: real CXL returns the data with poison
		// signalling; we surface it as an error response the host
		// must handle (RAS path). A demand access consumed the error,
		// so it counts as uncorrectable.
		d.media.Stats().Uncorrectable.Add(1)
		d.stats.Errors.Add(1)
		resp.Opcode = RespErr
		return resp
	}
	switch req.Opcode {
	case OpMemRd:
		// The line stages through a pooled buffer rather than
		// resp.Data directly: handing resp.Data[:] to the media
		// interface would force resp onto the heap.
		line := linePool.Get().(*[LineSize]byte)
		if err := d.media.ReadAt(line[:], int64(dpa)); err != nil {
			linePool.Put(line)
			d.stats.Errors.Add(1)
			resp.Opcode = RespErr
			return resp
		}
		resp.Data = *line
		linePool.Put(line)
		d.stats.Reads.Add(1)
		resp.Opcode = RespMemData
	case OpMemWr:
		line := linePool.Get().(*[LineSize]byte)
		*line = req.Data
		if err := d.media.WriteAt(line[:], int64(dpa)); err != nil {
			linePool.Put(line)
			d.stats.Errors.Add(1)
			resp.Opcode = RespErr
			return resp
		}
		linePool.Put(line)
		d.stats.Writes.Add(1)
		resp.Opcode = RespCmp
	case OpMemWrPtl:
		// Only the masked bytes reach the media, one write per run of
		// set mask bits and no read of the line, so writers of
		// disjoint bytes of one line never undo each other. A mask of
		// several runs lands run by run.
		line := linePool.Get().(*[LineSize]byte)
		*line = req.Data
		for mask := req.Mask; mask != 0; {
			lo := bits.TrailingZeros64(mask)
			n := bits.TrailingZeros64(^(mask >> lo))
			if err := d.media.WriteAt(line[lo:lo+n], int64(dpa)+int64(lo)); err != nil {
				linePool.Put(line)
				d.stats.Errors.Add(1)
				resp.Opcode = RespErr
				return resp
			}
			mask &^= (1<<n - 1) << lo
		}
		linePool.Put(line)
		d.stats.PartialWrites.Add(1)
		resp.Opcode = RespCmp
	case OpMemInv:
		d.stats.Invalidates.Add(1)
		resp.Opcode = RespCmp
	default:
		// Burst opcodes carry their payload in dedicated data flits and
		// must arrive through HandleMemBurst; seeing one here is a
		// protocol error, as is any unknown opcode.
		d.stats.Errors.Add(1)
		resp.Opcode = RespErr
	}
	return resp
}

// snapDecode resolves hpa through a fixed snapshot (one consistent view
// for a whole queued batch).
func snapDecode(s *deviceSnapshot, hpa uint64) (uint64, bool) {
	for _, dec := range s.decoders {
		if dpa, ok := dec.Decode(hpa); ok {
			return dpa, true
		}
	}
	return 0, false
}

// HandleMemQueue implements QueueHandler: it services one flushed ring
// batch against a single decoder/RAS snapshot. Runs of adjacent
// same-opcode MemRd/MemWr lines (contiguous in DPA space) collapse into
// one media access staged through the burst buffer pool, and the
// read/write counters are charged once per run — the device-side half
// of doorbell batching. Everything else (MemWrPtl, MemInv, unmapped or
// poisoned lines, run breaks) falls through to the per-request path
// with identical semantics.
func (d *Type3Device) HandleMemQueue(reqs []MemReq, resps []MemResp) {
	if len(reqs) == 1 {
		resps[0] = d.HandleMem(reqs[0])
		return
	}
	s := d.snapshot()
	var nRd, nWr int64
	i := 0
	for i < len(reqs) {
		req := &reqs[i]
		op := req.Opcode
		if op != OpMemRd && op != OpMemWr {
			resps[i] = d.HandleMem(*req)
			i++
			continue
		}
		dpa, ok := snapDecode(s, req.Addr)
		if !ok {
			resps[i] = d.HandleMem(*req) // per-request path counts the error
			i++
			continue
		}
		// Extend the run while the next request is the same opcode on
		// the next DPA line. Poison is probed once for the whole run
		// below, not per line here.
		j := i + 1
		for j < len(reqs) && j-i < MaxBurstLines {
			r2 := &reqs[j]
			if r2.Opcode != op {
				break
			}
			dpa2, ok2 := snapDecode(s, r2.Addr)
			if !ok2 || dpa2 != dpa+uint64((j-i)*LineSize) {
				break
			}
			j++
		}
		n := j - i
		// One span-granular RAS probe covers the run; a hit drops the
		// whole run to the per-request path, which re-checks line by
		// line and charges errors exactly as before.
		dirty := false
		switch {
		case s.poisonedSpan != nil:
			dirty = s.poisonedSpan(dpa, uint64(n*LineSize))
		case s.poisoned != nil:
			for k := 0; k < n; k++ {
				if s.poisoned(dpa + uint64(k*LineSize)) {
					dirty = true
					break
				}
			}
		}
		if n == 1 || dirty {
			resps[i] = d.HandleMem(*req)
			i++
			continue
		}
		buf := burstBufPool.Get().(*[maxBurstBytes]byte)
		span := buf[:n*LineSize]
		var err error
		if op == OpMemRd {
			err = d.media.ReadAt(span, int64(dpa))
		} else {
			for k := 0; k < n; k++ {
				copy(span[k*LineSize:(k+1)*LineSize], reqs[i+k].Data[:])
			}
			err = d.media.WriteAt(span, int64(dpa))
		}
		for k := 0; k < n; k++ {
			r := &resps[i+k]
			r.Tag = reqs[i+k].Tag
			switch {
			case err != nil:
				r.Opcode = RespErr
				d.stats.Errors.Add(1)
			case op == OpMemRd:
				copy(r.Data[:], span[k*LineSize:(k+1)*LineSize])
				r.Opcode = RespMemData
			default:
				r.Opcode = RespCmp
			}
		}
		burstBufPool.Put(buf)
		if err == nil {
			if op == OpMemRd {
				nRd += int64(n)
			} else {
				nWr += int64(n)
			}
		}
		i = j
	}
	if nRd > 0 {
		d.stats.Reads.Add(nRd)
	}
	if nWr > 0 {
		d.stats.Writes.Add(nWr)
	}
}

// HandleMemBurst implements BurstHandler: it services a multi-line burst
// with a single media access when the span maps to one contiguous DPA
// range through one HDM decoder — plain windows and interleaved windows
// alike (an interleaved burst names consecutive target-owned lines; see
// decodeSpan) — falling back to per-line accesses only across decoder
// boundaries, and counting each such fallback in MemStats.LineFallbacks.
// Poison (RAS) checks still run per line, and a burst touching any
// poisoned or unmapped line fails whole — no partial effects reach the
// media.
func (d *Type3Device) HandleMemBurst(req MemReq, payload []byte) MemResp {
	resp := MemResp{Tag: req.Tag}
	lines := int(req.Lines)
	if req.Opcode != OpMemRdBurst && req.Opcode != OpMemWrBurst ||
		lines < 1 || lines > MaxBurstLines ||
		len(payload) != lines*LineSize || !lineAligned(req.Addr) {
		d.stats.Errors.Add(1)
		resp.Opcode = RespErr
		return resp
	}
	span := uint64(len(payload))
	dpa, snap, contiguous := d.decodeSpan(req.Addr, span)
	poisoned := snap.poisoned

	// RAS check. On the contiguous fast path a span-granular checker
	// (the mailbox's — one atomic load while the poison list is empty)
	// covers the whole burst; otherwise the per-line hook runs per
	// line, same as single-line transactions.
	if contiguous && snap.poisonedSpan != nil {
		if snap.poisonedSpan(dpa, span) {
			d.media.Stats().Uncorrectable.Add(1)
			d.stats.Errors.Add(1)
			resp.Opcode = RespErr
			return resp
		}
		poisoned = nil
	}

	// Validate every line before touching the media — decode (when the
	// span is not contiguous) and poison — so a failing burst has no
	// partial effects. Line DPAs are kept on the stack for the access
	// loop; the fast path never fills them.
	if !contiguous {
		d.stats.LineFallbacks.Add(1)
	}
	var lineDPAs [MaxBurstLines]uint64
	if !contiguous || poisoned != nil {
		for i := 0; i < lines; i++ {
			lineDPA := dpa + uint64(i*LineSize)
			if !contiguous {
				var ok bool
				if lineDPA, ok = d.decode(req.Addr + uint64(i*LineSize)); !ok {
					d.stats.Errors.Add(1)
					resp.Opcode = RespErr
					return resp
				}
				lineDPAs[i] = lineDPA
			}
			if poisoned != nil && poisoned(lineDPA) {
				d.media.Stats().Uncorrectable.Add(1)
				d.stats.Errors.Add(1)
				resp.Opcode = RespErr
				return resp
			}
		}
	}

	if contiguous {
		var err error
		if req.Opcode == OpMemRdBurst {
			err = d.media.ReadAt(payload, int64(dpa))
		} else {
			err = d.media.WriteAt(payload, int64(dpa))
		}
		if err != nil {
			d.stats.Errors.Add(1)
			resp.Opcode = RespErr
			return resp
		}
	} else {
		for i := 0; i < lines; i++ {
			line := payload[i*LineSize : (i+1)*LineSize]
			var err error
			if req.Opcode == OpMemRdBurst {
				err = d.media.ReadAt(line, int64(lineDPAs[i]))
			} else {
				err = d.media.WriteAt(line, int64(lineDPAs[i]))
			}
			if err != nil {
				d.stats.Errors.Add(1)
				resp.Opcode = RespErr
				return resp
			}
		}
	}
	d.stats.BurstLines.Add(int64(lines))
	if req.Opcode == OpMemRdBurst {
		d.stats.ReadBursts.Add(1)
		resp.Opcode = RespMemData
	} else {
		d.stats.WriteBursts.Add(1)
		resp.Opcode = RespCmp
	}
	return resp
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
