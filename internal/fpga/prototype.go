// Package fpga models the paper's CXL prototype: an Intel Agilex-7
// I-Series FPGA card embodying a CXL 1.1/2.0 compliant Type-3 endpoint
// (§2.2, Figures 2 and 4). The architecture pairs the R-Tile Hard IP,
// which manages CXL link functions over a PCIe Gen5 x16 connection, with
// Soft IP in the FPGA main fabric implementing the transaction layers:
// CXL.mem requests become host-managed device memory (HDM) accesses
// against two onboard DDR4 modules (8 GB each at 1333 MHz), and CXL.io
// requests are forwarded to control/status registers, with a User
// Streaming Interface for custom CXL.io features.
//
// The card sits outside the node and is battery-backed (§1.4), which is
// what lets the paper treat its memory as persistent.
package fpga

import (
	"fmt"
	"sync"

	"cxlpmem/internal/cxl"
	"cxlpmem/internal/interconnect"
	"cxlpmem/internal/memdev"
	"cxlpmem/internal/units"
)

// Paper configuration constants (§2.2).
const (
	// PaperChannels: "two onboard DDR4 memory modules".
	PaperChannels = 2
	// PaperChannelCapacity: "each boasting a capacity of 8GB".
	PaperChannelCapacity = 8 * units.GiB
	// PaperRate: "operating at a clock frequency of 1333 MHz".
	PaperRate units.TransferRate = 1333
	// VendorIntel is the PCI vendor ID in the prototype's config space.
	VendorIntel = 0x8086
	// DeviceIDPrototype is an arbitrary stable device ID for the card.
	DeviceIDPrototype = 0x0CC5
)

// Options parameterises the prototype. The zero value reproduces the
// paper's card; the other fields implement §2.2's "potential avenues for
// enhancing bandwidth": a higher-speed FPGA supporting DDR4-3200 or
// DDR5-5600, and scaling from one channel to four.
type Options struct {
	// Name of the card; default "agilex7-cxl".
	Name string
	// Channels of device DRAM; default PaperChannels.
	Channels int
	// Rate of the device DRAM; default PaperRate.
	Rate units.TransferRate
	// ChannelCapacity per module; default PaperChannelCapacity.
	ChannelCapacity units.Size
	// LinkKind of the host connection; default PCIe Gen5 (CXL 1.1/2.0).
	// KindPCIe6 models a CXL 3.0 link for the ablation.
	LinkKind interconnect.Kind
	// Lanes of the link; default 16.
	Lanes int
	// NoBattery drops the battery backing, making the HDM volatile
	// (for tests that demonstrate why the battery matters).
	NoBattery bool
}

func (o Options) withDefaults() Options {
	if o.Name == "" {
		o.Name = "agilex7-cxl"
	}
	if o.Channels == 0 {
		o.Channels = PaperChannels
	}
	if o.Rate == 0 {
		o.Rate = PaperRate
	}
	if o.ChannelCapacity == 0 {
		o.ChannelCapacity = PaperChannelCapacity
	}
	if o.LinkKind != interconnect.KindPCIe5 && o.LinkKind != interconnect.KindPCIe6 && o.LinkKind != interconnect.KindPCIe4 {
		o.LinkKind = interconnect.KindPCIe5
	}
	if o.Lanes == 0 {
		o.Lanes = 16
	}
	return o
}

// Prototype is the FPGA card: a CXL Type-3 endpoint plus the card-level
// machinery around it.
type Prototype struct {
	*cxl.Type3Device
	opts    Options
	link    *interconnect.Link
	hdm     *memdev.DRAM
	csr     csrFile
	mailbox *cxl.Mailbox
}

// New builds the card. The returned Prototype is a cxl.Endpoint ready to
// attach to a root port.
func New(opts Options) (*Prototype, error) {
	opts = opts.withDefaults()
	if opts.Channels < 1 || opts.Channels > 4 {
		return nil, fmt.Errorf("fpga: %s: channel count %d outside the card's 1..4 range", opts.Name, opts.Channels)
	}
	hdm, err := memdev.NewDRAM(memdev.DRAMConfig{
		Name:               opts.Name + "-hdm",
		Rate:               opts.Rate,
		Channels:           opts.Channels,
		CapacityPerChannel: opts.ChannelCapacity,
		// Far-memory media latency: DDR4 behind the on-card
		// controller; the CXL fabric latency lives on the link.
		IdleLatency:   units.Nanoseconds(105),
		BatteryBacked: !opts.NoBattery,
	})
	if err != nil {
		return nil, fmt.Errorf("fpga: %s: %w", opts.Name, err)
	}
	// memdev defaults the Kind to DRAM; expose the CXL-HDM role via the
	// endpoint wrapper so the perf engine can tell them apart.
	ep, err := cxl.NewType3(opts.Name, VendorIntel, DeviceIDPrototype, &hdmMedia{DRAM: hdm})
	if err != nil {
		return nil, err
	}
	link, err := interconnect.NewPCIe(opts.Name+"-link", opts.LinkKind, opts.Lanes, units.Nanoseconds(0))
	if err != nil {
		return nil, err
	}
	// CXL.mem protocol framing derates the raw PCIe bandwidth; the flit
	// accounting in internal/cxl gives the payload efficiency.
	link.Efficiency = cxl.ProtocolEfficiency() + 0.28 // header flits amortise over streams
	// One traversal of R-Tile + PCIe + soft-IP transaction layer: the
	// prototype's far-memory penalty over local DRAM access.
	link.Latency = units.Nanoseconds(240)
	p := &Prototype{Type3Device: ep, opts: opts, link: link, hdm: hdm}
	p.mailbox, err = cxl.NewMailbox(ep, "agilex7-sim-1.1")
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Mailbox exposes the device command interface (identify, health,
// poison management, sanitize).
func (p *Prototype) Mailbox() *cxl.Mailbox { return p.mailbox }

// hdmMedia wraps the card DRAM reporting KindCXLHDM.
type hdmMedia struct {
	*memdev.DRAM
}

func (m *hdmMedia) Profile() memdev.Profile {
	p := m.DRAM.Profile()
	p.Kind = memdev.KindCXLHDM
	return p
}

// Link returns the card's host connection (for topology wiring).
func (p *Prototype) Link() *interconnect.Link { return p.link }

// HDM returns the card's DRAM (test and battery checks).
func (p *Prototype) HDM() *memdev.DRAM { return p.hdm }

// TheoreticalLinkPeak is the headline figure the paper quotes for the
// host connection ("theoretical bandwidth of up to 64GB/s" for Gen5x16).
func (p *Prototype) TheoreticalLinkPeak() units.Bandwidth { return p.link.RawPeak() }

// EffectiveCap is the post-protocol payload bandwidth of the link.
func (p *Prototype) EffectiveCap() units.Bandwidth { return p.link.EffectiveCap() }

func (p *Prototype) String() string {
	return fmt.Sprintf("%s: Agilex7 CXL Type3, %dx%s DDR4-%d, %s link",
		p.opts.Name, p.opts.Channels, p.opts.ChannelCapacity, p.opts.Rate, p.opts.LinkKind)
}

// --- User Streaming Interface -------------------------------------------
//
// §2.2: "a noteworthy augmentation is the User Streaming Interface,
// offering a conduit for custom CXL.io features". We model it as a small
// CSR mailbox reachable through the endpoint's config space mirror:
// software writes a command register and reads a response register.

// CSR addresses in the vendor region of the config space.
const (
	CSRCommand  = 0x400
	CSRResponse = 0x404
	CSRStatus   = 0x408
)

// Streaming commands.
const (
	// CmdNop does nothing and completes immediately.
	CmdNop uint32 = 0
	// CmdIdent returns a card signature in the response register.
	CmdIdent uint32 = 1
	// CmdChannelCount returns the populated DDR channel count.
	CmdChannelCount uint32 = 2
	// CmdBatteryStatus returns 1 if the HDM is battery-backed.
	CmdBatteryStatus uint32 = 3
)

// IdentSignature is returned by CmdIdent.
const IdentSignature uint32 = 0xC0DE_0CC5

// Status register bits.
const (
	StatusReady uint32 = 1 << 0
	StatusError uint32 = 1 << 1
)

type csrFile struct {
	mu sync.Mutex
}

// ExecIO runs one user-streaming command through the CXL.io path and
// returns the response register value.
func (p *Prototype) ExecIO(cmd uint32) (uint32, error) {
	p.csr.mu.Lock()
	defer p.csr.mu.Unlock()
	cs := p.Config()
	if err := cs.Write32(CSRCommand, cmd); err != nil {
		return 0, err
	}
	var resp, status uint32
	switch cmd {
	case CmdNop:
		resp, status = 0, StatusReady
	case CmdIdent:
		resp, status = IdentSignature, StatusReady
	case CmdChannelCount:
		resp, status = uint32(p.opts.Channels), StatusReady
	case CmdBatteryStatus:
		if p.hdm.Persistent() {
			resp = 1
		}
		status = StatusReady
	default:
		resp, status = 0, StatusError
	}
	if err := cs.Write32(CSRResponse, resp); err != nil {
		return 0, err
	}
	if err := cs.Write32(CSRStatus, status); err != nil {
		return 0, err
	}
	if status&StatusError != 0 {
		return 0, fmt.Errorf("fpga: %s: unknown streaming command %#x", p.opts.Name, cmd)
	}
	return resp, nil
}
