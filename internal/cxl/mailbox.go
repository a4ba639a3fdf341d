package cxl

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Memory-device command interface (mailbox). CXL 2.0 Type-3 devices
// expose a command mailbox through which system software identifies the
// device, queries health, reads partition info and issues maintenance
// operations — this is what the Linux `cxl` tooling drives. We model
// the command set the paper's prototype would need: identification,
// health (including the battery state its persistence story rests on),
// partition info, poison-list management and sanitize.

// MailboxOpcode selects a device command.
type MailboxOpcode uint16

// Supported commands (a subset of the CXL 2.0 command set, with the
// spec's opcode numbers where we model the same operation).
const (
	// OpIdentifyMemDevice returns the device identity block (0x4000).
	OpIdentifyMemDevice MailboxOpcode = 0x4000
	// OpGetHealthInfo returns media health (0x4200).
	OpGetHealthInfo MailboxOpcode = 0x4200
	// OpGetPartitionInfo returns volatile/persistent split (0x4100).
	OpGetPartitionInfo MailboxOpcode = 0x4100
	// OpGetPoisonList returns the tracked poisoned lines (0x4300).
	OpGetPoisonList MailboxOpcode = 0x4300
	// OpInjectPoison marks a line poisoned (0x4301, debug capability).
	OpInjectPoison MailboxOpcode = 0x4301
	// OpClearPoison clears a poisoned line (0x4302).
	OpClearPoison MailboxOpcode = 0x4302
	// OpSanitize destroys all media content (0x4400).
	OpSanitize MailboxOpcode = 0x4400

	// Dynamic Capacity Device (DCD) command set (CXL 3.0 §8.2.9.8.9).
	// These round-trip the fabric manager's grant/release flow through
	// the device mailbox, exactly as the Linux DCD path would drive it.

	// OpGetDCDConfig returns the dynamic-capacity configuration (0x4800).
	OpGetDCDConfig MailboxOpcode = 0x4800
	// OpGetDCDExtentList returns the accepted extent list (0x4801).
	OpGetDCDExtentList MailboxOpcode = 0x4801
	// OpAddDCDResponse accepts or rejects an offered extent (0x4802).
	OpAddDCDResponse MailboxOpcode = 0x4802
	// OpReleaseDCD releases an accepted extent back to the fabric (0x4803).
	OpReleaseDCD MailboxOpcode = 0x4803
)

// MailboxStatus is the command return code.
type MailboxStatus uint16

const (
	// MboxSuccess — command completed.
	MboxSuccess MailboxStatus = 0
	// MboxUnsupported — opcode not implemented.
	MboxUnsupported MailboxStatus = 1
	// MboxInvalidInput — malformed payload.
	MboxInvalidInput MailboxStatus = 2
	// MboxInternalError — device-side failure.
	MboxInternalError MailboxStatus = 3
	// MboxTimeout — the command deadline expired before the device
	// answered (ExecuteTimeout). Host-side synthetic status: the device
	// may still be executing; its eventual result is discarded.
	MboxTimeout MailboxStatus = 0xFFFF
)

func (s MailboxStatus) String() string {
	switch s {
	case MboxSuccess:
		return "success"
	case MboxUnsupported:
		return "unsupported"
	case MboxInvalidInput:
		return "invalid-input"
	case MboxInternalError:
		return "internal-error"
	case MboxTimeout:
		return "timeout"
	default:
		return fmt.Sprintf("MailboxStatus(%d)", uint16(s))
	}
}

// Identity is the OpIdentifyMemDevice response.
type Identity struct {
	Vendor      uint16
	Device      uint16
	TotalCap    uint64 // bytes
	Persistent  bool
	LineSize    uint32
	PoisonMax   uint32
	FirmwareRev string
}

// Health is the OpGetHealthInfo response.
type Health struct {
	// MediaOK is false after an unrecovered media fault.
	MediaOK bool
	// BatteryOK reports the backup power source (the paper's
	// persistence guarantee).
	BatteryOK bool
	// PoisonedLines currently tracked.
	PoisonedLines int
	// LifeUsedPercent is wear (always 0 for DRAM media).
	LifeUsedPercent int
}

// PartitionInfo is the OpGetPartitionInfo response. The paper's card is
// all-persistent (battery over the whole HDM).
type PartitionInfo struct {
	VolatileBytes   uint64
	PersistentBytes uint64
}

// DCDConfig is the OpGetDCDConfig response: the fixed device address
// space dynamic extents are granted within, and the grant granule.
type DCDConfig struct {
	// TotalCapacity is the DCD address-space size in bytes (the tenant
	// quota). Extents live at fixed DPAs inside it.
	TotalCapacity uint64
	// Granule is the extent allocation unit in bytes.
	Granule uint64
}

// DCDExtent names one dynamic-capacity extent in device address space.
// Tag is the fabric manager's identifier for the extent, echoed by the
// host in every response that refers to it.
type DCDExtent struct {
	Base uint64
	Size uint64
	Tag  uint64
}

// DCDBackend is the control plane behind the DCD command set — the
// fabric manager. The mailbox validates framing and forwards; the
// backend owns extent state.
type DCDBackend interface {
	// DCDConfig reports the device's dynamic-capacity configuration.
	DCDConfig() DCDConfig
	// DCDExtents lists the currently accepted (and revoked-but-
	// unacknowledged) extents.
	DCDExtents() []DCDExtent
	// AddCapacityResponse completes a pending grant: the host accepts
	// or rejects the offered extent.
	AddCapacityResponse(ext DCDExtent, accept bool) error
	// ReleaseCapacity returns an accepted extent to the fabric.
	ReleaseCapacity(ext DCDExtent) error
}

// Mailbox is the command engine attached to a Type-3 device.
type Mailbox struct {
	dev *Type3Device

	mu     sync.Mutex
	poison map[uint64]bool // line-aligned DPAs
	fwRev  string
	dcd    DCDBackend
	// npoison mirrors len(poison) so HasPoisonIn — which runs on every
	// HDM access — can skip the lock while the list is empty.
	npoison atomic.Int64
	// fault, when set, intercepts commands before execution: it may
	// stall (sleep, then pass through) or answer in the device's stead
	// (garbled response). Fault injection for the command plane, the
	// mailbox twin of RootPort.SetFault.
	fault atomic.Pointer[func(MailboxOpcode) (MailboxStatus, bool)]
}

// poisonListMax bounds the tracked poison list, as real devices do.
const poisonListMax = 256

// NewMailbox attaches a command mailbox to a Type-3 device.
func NewMailbox(dev *Type3Device, firmwareRev string) (*Mailbox, error) {
	if dev == nil {
		return nil, fmt.Errorf("cxl: mailbox: nil device")
	}
	if firmwareRev == "" {
		firmwareRev = "sim-1.0"
	}
	m := &Mailbox{dev: dev, poison: make(map[uint64]bool), fwRev: firmwareRev}
	dev.SetPoisonChecker(m.HasPoisonIn)
	return m, nil
}

// SetDCD installs the dynamic-capacity backend (the fabric manager).
// With no backend installed, DCD opcodes return MboxUnsupported — a
// statically carved device.
func (m *Mailbox) SetDCD(b DCDBackend) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dcd = b
}

// SetFault installs (or, with nil, removes) the command-plane fault
// hook. It runs outside the mailbox lock, so a stalling hook blocks
// only the stalled command, not poison checks on the data path. When
// the hook returns intercepted=true, its status is the command's
// result and the device never executes.
func (m *Mailbox) SetFault(f func(MailboxOpcode) (MailboxStatus, bool)) {
	if f == nil {
		m.fault.Store(nil)
		return
	}
	m.fault.Store(&f)
}

// ExecuteTimeout is Execute with a command deadline: if the device does
// not answer within d, it returns MboxTimeout, charges the device's
// CommandTimeouts RAS counter, and discards the eventual result. The
// command itself keeps running to completion device-side (a stalled
// mailbox is stalled, not dead), so state-changing commands may still
// take effect after a timeout — exactly the ambiguity a real fabric
// manager faces. A non-positive d degenerates to Execute.
func (m *Mailbox) ExecuteTimeout(op MailboxOpcode, in []byte, d time.Duration) ([]byte, MailboxStatus) {
	if d <= 0 {
		return m.Execute(op, in)
	}
	type result struct {
		out    []byte
		status MailboxStatus
	}
	ch := make(chan result, 1)
	go func() {
		out, st := m.Execute(op, in)
		ch <- result{out, st}
	}()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case r := <-ch:
		return r.out, r.status
	case <-t.C:
		m.dev.media.Stats().CommandTimeouts.Add(1)
		return nil, MboxTimeout
	}
}

// Execute runs one command. in is the opcode-specific payload; out is
// the opcode-specific response encoding.
func (m *Mailbox) Execute(op MailboxOpcode, in []byte) (out []byte, status MailboxStatus) {
	if f := m.fault.Load(); f != nil {
		if st, intercepted := (*f)(op); intercepted {
			return nil, st
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	switch op {
	case OpGetDCDConfig, OpGetDCDExtentList, OpAddDCDResponse, OpReleaseDCD:
		return m.executeDCD(op, in)
	case OpIdentifyMemDevice:
		return m.identify(), MboxSuccess
	case OpGetHealthInfo:
		return m.health(), MboxSuccess
	case OpGetPartitionInfo:
		return m.partition(), MboxSuccess
	case OpGetPoisonList:
		return m.poisonList(), MboxSuccess
	case OpInjectPoison, OpClearPoison:
		if len(in) != 8 {
			return nil, MboxInvalidInput
		}
		dpa := binary.LittleEndian.Uint64(in)
		if !lineAligned(dpa) || dpa >= uint64(m.dev.media.Capacity().Bytes()) {
			return nil, MboxInvalidInput
		}
		if op == OpInjectPoison {
			if len(m.poison) >= poisonListMax {
				return nil, MboxInternalError
			}
			m.poison[dpa] = true
		} else {
			delete(m.poison, dpa)
		}
		m.npoison.Store(int64(len(m.poison)))
		return nil, MboxSuccess
	case OpSanitize:
		// Sanitize wipes the media regardless of battery: an explicit
		// secure-erase, modelled by zero-filling every touched page.
		if err := m.sanitize(); err != nil {
			return nil, MboxInternalError
		}
		m.poison = make(map[uint64]bool)
		m.npoison.Store(0)
		return nil, MboxSuccess
	default:
		return nil, MboxUnsupported
	}
}

func (m *Mailbox) identify() []byte {
	id := Identity{
		Vendor:      m.dev.cfg.VendorID(),
		Device:      m.dev.cfg.DeviceID(),
		TotalCap:    uint64(m.dev.media.Capacity().Bytes()),
		Persistent:  m.dev.media.Persistent(),
		LineSize:    uint32(LineSize),
		PoisonMax:   poisonListMax,
		FirmwareRev: m.fwRev,
	}
	return encodeIdentity(id)
}

func (m *Mailbox) health() []byte {
	h := Health{
		MediaOK:   true,
		BatteryOK: m.dev.media.Persistent(),
	}
	h.PoisonedLines = len(m.poison)
	out := make([]byte, 16)
	if h.MediaOK {
		out[0] = 1
	}
	if h.BatteryOK {
		out[1] = 1
	}
	binary.LittleEndian.PutUint32(out[4:], uint32(h.PoisonedLines))
	binary.LittleEndian.PutUint32(out[8:], uint32(h.LifeUsedPercent))
	return out
}

func (m *Mailbox) partition() []byte {
	out := make([]byte, 16)
	cap := uint64(m.dev.media.Capacity().Bytes())
	if m.dev.media.Persistent() {
		binary.LittleEndian.PutUint64(out[8:], cap)
	} else {
		binary.LittleEndian.PutUint64(out[0:], cap)
	}
	return out
}

func (m *Mailbox) poisonList() []byte {
	out := make([]byte, 4+8*len(m.poison))
	binary.LittleEndian.PutUint32(out, uint32(len(m.poison)))
	i := 0
	// Deterministic order for tests: ascending.
	lines := make([]uint64, 0, len(m.poison))
	for dpa := range m.poison {
		lines = append(lines, dpa)
	}
	for a := range lines {
		for b := a + 1; b < len(lines); b++ {
			if lines[b] < lines[a] {
				lines[a], lines[b] = lines[b], lines[a]
			}
		}
	}
	for _, dpa := range lines {
		binary.LittleEndian.PutUint64(out[4+8*i:], dpa)
		i++
	}
	return out
}

func (m *Mailbox) sanitize() error {
	// Zero the full media range in page-sized strides; the sparse
	// store drops to zeros either way, but writing through the Device
	// interface keeps stats and subclasses honest.
	const stride = 1 << 20
	zero := make([]byte, stride)
	cap := m.dev.media.Capacity().Bytes()
	for off := int64(0); off < cap; off += stride {
		n := stride
		if off+int64(n) > cap {
			n = int(cap - off)
		}
		if err := m.dev.media.WriteAt(zero[:n], off); err != nil {
			return err
		}
	}
	return nil
}

// HasPoisonIn reports whether any line of [dpa, dpa+n) is on the
// poison list — the device's poison probe, which every HDM access
// consults. The empty-list fast path is a single lock-free load.
func (m *Mailbox) HasPoisonIn(dpa, n uint64) bool {
	if m.npoison.Load() == 0 {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for line := dpa &^ uint64(LineSize-1); line < dpa+n; line += uint64(LineSize) {
		if m.poison[line] {
			return true
		}
	}
	return false
}

// IsPoisoned reports whether a line-aligned DPA is on the poison list,
// the per-line form RAS patrol reads. The empty-list fast path is
// lock-free.
func (m *Mailbox) IsPoisoned(dpa uint64) bool {
	if m.npoison.Load() == 0 {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.poison[dpa&^uint64(LineSize-1)]
}

func encodeIdentity(id Identity) []byte {
	fw := []byte(id.FirmwareRev)
	if len(fw) > 16 {
		fw = fw[:16]
	}
	out := make([]byte, 40)
	binary.LittleEndian.PutUint16(out[0:], id.Vendor)
	binary.LittleEndian.PutUint16(out[2:], id.Device)
	binary.LittleEndian.PutUint64(out[4:], id.TotalCap)
	if id.Persistent {
		out[12] = 1
	}
	binary.LittleEndian.PutUint32(out[16:], id.LineSize)
	binary.LittleEndian.PutUint32(out[20:], id.PoisonMax)
	copy(out[24:], fw)
	return out
}

// DecodeIdentity parses an OpIdentifyMemDevice response.
func DecodeIdentity(b []byte) (Identity, error) {
	if len(b) != 40 {
		return Identity{}, fmt.Errorf("cxl: identity payload %d bytes, want 40", len(b))
	}
	id := Identity{
		Vendor:     binary.LittleEndian.Uint16(b[0:]),
		Device:     binary.LittleEndian.Uint16(b[2:]),
		TotalCap:   binary.LittleEndian.Uint64(b[4:]),
		Persistent: b[12] == 1,
		LineSize:   binary.LittleEndian.Uint32(b[16:]),
		PoisonMax:  binary.LittleEndian.Uint32(b[20:]),
	}
	id.FirmwareRev = trimNulStr(b[24:40])
	return id, nil
}

// DecodeHealth parses an OpGetHealthInfo response.
func DecodeHealth(b []byte) (Health, error) {
	if len(b) != 16 {
		return Health{}, fmt.Errorf("cxl: health payload %d bytes, want 16", len(b))
	}
	return Health{
		MediaOK:         b[0] == 1,
		BatteryOK:       b[1] == 1,
		PoisonedLines:   int(binary.LittleEndian.Uint32(b[4:])),
		LifeUsedPercent: int(binary.LittleEndian.Uint32(b[8:])),
	}, nil
}

// DecodePartitionInfo parses an OpGetPartitionInfo response.
func DecodePartitionInfo(b []byte) (PartitionInfo, error) {
	if len(b) != 16 {
		return PartitionInfo{}, fmt.Errorf("cxl: partition payload %d bytes, want 16", len(b))
	}
	return PartitionInfo{
		VolatileBytes:   binary.LittleEndian.Uint64(b[0:]),
		PersistentBytes: binary.LittleEndian.Uint64(b[8:]),
	}, nil
}

// DecodePoisonList parses an OpGetPoisonList response.
func DecodePoisonList(b []byte) ([]uint64, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("cxl: poison payload too short")
	}
	n := binary.LittleEndian.Uint32(b)
	// int64 math for the same overflow reason as DecodeDCDExtentList.
	if int64(len(b)) != 4+8*int64(n) {
		return nil, fmt.Errorf("cxl: poison payload length mismatch")
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[4+8*i:])
	}
	return out, nil
}

// executeDCD services the dynamic-capacity opcodes; caller holds m.mu.
// The mailbox validates framing only — extent state lives in the
// backend, whose errors surface as MboxInvalidInput (the host referred
// to an extent the fabric does not recognise in that state).
func (m *Mailbox) executeDCD(op MailboxOpcode, in []byte) ([]byte, MailboxStatus) {
	if m.dcd == nil {
		return nil, MboxUnsupported
	}
	switch op {
	case OpGetDCDConfig:
		return EncodeDCDConfig(m.dcd.DCDConfig()), MboxSuccess
	case OpGetDCDExtentList:
		return EncodeDCDExtentList(m.dcd.DCDExtents()), MboxSuccess
	case OpAddDCDResponse:
		ext, accept, err := DecodeDCDResponse(in)
		if err != nil {
			return nil, MboxInvalidInput
		}
		if err := m.dcd.AddCapacityResponse(ext, accept); err != nil {
			return nil, MboxInvalidInput
		}
		return nil, MboxSuccess
	case OpReleaseDCD:
		ext, err := DecodeDCDExtent(in)
		if err != nil {
			return nil, MboxInvalidInput
		}
		if err := m.dcd.ReleaseCapacity(ext); err != nil {
			return nil, MboxInvalidInput
		}
		return nil, MboxSuccess
	}
	return nil, MboxUnsupported
}

// EncodeDCDConfig encodes an OpGetDCDConfig response.
func EncodeDCDConfig(c DCDConfig) []byte {
	out := make([]byte, 16)
	binary.LittleEndian.PutUint64(out[0:], c.TotalCapacity)
	binary.LittleEndian.PutUint64(out[8:], c.Granule)
	return out
}

// DecodeDCDConfig parses an OpGetDCDConfig response.
func DecodeDCDConfig(b []byte) (DCDConfig, error) {
	if len(b) != 16 {
		return DCDConfig{}, fmt.Errorf("cxl: dcd config payload %d bytes, want 16", len(b))
	}
	return DCDConfig{
		TotalCapacity: binary.LittleEndian.Uint64(b[0:]),
		Granule:       binary.LittleEndian.Uint64(b[8:]),
	}, nil
}

// EncodeDCDExtent encodes one extent (the OpReleaseDCD payload).
func EncodeDCDExtent(e DCDExtent) []byte {
	out := make([]byte, 24)
	binary.LittleEndian.PutUint64(out[0:], e.Base)
	binary.LittleEndian.PutUint64(out[8:], e.Size)
	binary.LittleEndian.PutUint64(out[16:], e.Tag)
	return out
}

// DecodeDCDExtent parses one extent.
func DecodeDCDExtent(b []byte) (DCDExtent, error) {
	if len(b) != 24 {
		return DCDExtent{}, fmt.Errorf("cxl: dcd extent payload %d bytes, want 24", len(b))
	}
	return DCDExtent{
		Base: binary.LittleEndian.Uint64(b[0:]),
		Size: binary.LittleEndian.Uint64(b[8:]),
		Tag:  binary.LittleEndian.Uint64(b[16:]),
	}, nil
}

// EncodeDCDResponse encodes an OpAddDCDResponse payload: the offered
// extent plus the host's accept/reject decision.
func EncodeDCDResponse(e DCDExtent, accept bool) []byte {
	out := make([]byte, 25)
	copy(out, EncodeDCDExtent(e))
	if accept {
		out[24] = 1
	}
	return out
}

// DecodeDCDResponse parses an OpAddDCDResponse payload.
func DecodeDCDResponse(b []byte) (DCDExtent, bool, error) {
	if len(b) != 25 {
		return DCDExtent{}, false, fmt.Errorf("cxl: dcd response payload %d bytes, want 25", len(b))
	}
	ext, err := DecodeDCDExtent(b[:24])
	if err != nil {
		return DCDExtent{}, false, err
	}
	return ext, b[24] == 1, nil
}

// EncodeDCDExtentList encodes an OpGetDCDExtentList response.
func EncodeDCDExtentList(exts []DCDExtent) []byte {
	out := make([]byte, 4+24*len(exts))
	binary.LittleEndian.PutUint32(out, uint32(len(exts)))
	for i, e := range exts {
		copy(out[4+24*i:], EncodeDCDExtent(e))
	}
	return out
}

// DecodeDCDExtentList parses an OpGetDCDExtentList response.
func DecodeDCDExtentList(b []byte) ([]DCDExtent, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("cxl: dcd extent list too short")
	}
	n := binary.LittleEndian.Uint32(b)
	// Compare in int64: 24*n overflows uint32 for hostile counts, which
	// would let a short payload pass and the loop below index past it.
	if int64(len(b)) != 4+24*int64(n) {
		return nil, fmt.Errorf("cxl: dcd extent list length mismatch")
	}
	out := make([]DCDExtent, n)
	for i := range out {
		e, err := DecodeDCDExtent(b[4+24*i : 4+24*(i+1)])
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

func trimNulStr(b []byte) string {
	for i, c := range b {
		if c == 0 {
			return string(b[:i])
		}
	}
	return string(b)
}
