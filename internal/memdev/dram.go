package memdev

import (
	"fmt"

	"cxlpmem/internal/units"
)

// DRAMConfig describes a set of DIMMs behind one memory controller.
type DRAMConfig struct {
	// Name identifies the module set (e.g. "ddr5-socket0").
	Name string
	// Rate is the DIMM signalling rate (DDR4-2666 => 2666).
	Rate units.TransferRate
	// Channels is the populated channel count.
	Channels int
	// CapacityPerChannel is the DIMM capacity on each channel.
	CapacityPerChannel units.Size
	// IdleLatency is the unloaded access latency of the media.
	IdleLatency units.Latency
	// Efficiency derates the theoretical channel peak to a sustainable
	// STREAM-class figure (row-buffer misses, refresh, turnarounds).
	// Zero means the default of 0.78, which puts one DDR5-4800 channel
	// at ~30 GB/s raw and the paper's single-DIMM SPR socket in the
	// right regime for the observed 20-22 GB/s App-Direct saturation.
	Efficiency float64
	// BatteryBacked marks the module set persistent, like the
	// battery-backed DIMMs the paper positions the CXL module as a
	// successor to (§1.2, §1.4).
	BatteryBacked bool
}

// defaultDRAMEfficiency is the fraction of theoretical channel bandwidth
// sustainable by streaming access.
const defaultDRAMEfficiency = 0.78

// DRAM is a conventional DIMM set.
type DRAM struct {
	*baseDevice
	cfg DRAMConfig
}

// NewDRAM builds a DRAM device from cfg.
func NewDRAM(cfg DRAMConfig) (*DRAM, error) {
	if cfg.Channels <= 0 {
		return nil, fmt.Errorf("memdev: %s: channels must be positive, got %d", cfg.Name, cfg.Channels)
	}
	if cfg.CapacityPerChannel <= 0 {
		return nil, fmt.Errorf("memdev: %s: capacity per channel must be positive", cfg.Name)
	}
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("memdev: %s: transfer rate must be positive", cfg.Name)
	}
	eff := cfg.Efficiency
	if eff == 0 {
		eff = defaultDRAMEfficiency
	}
	if eff < 0 || eff > 1 {
		return nil, fmt.Errorf("memdev: %s: efficiency %v outside (0,1]", cfg.Name, eff)
	}
	peak := units.Bandwidth(float64(units.DDRPeak(cfg.Rate)) * float64(cfg.Channels) * eff)
	lat := cfg.IdleLatency
	if lat == 0 {
		lat = units.Nanoseconds(90)
	}
	prof := Profile{
		ReadPeak:    peak,
		WritePeak:   peak,
		IdleLatency: lat,
		Kind:        KindDRAM,
	}
	total := units.Size(int64(cfg.CapacityPerChannel) * int64(cfg.Channels))
	return &DRAM{
		baseDevice: newBaseDevice(cfg.Name, total, cfg.BatteryBacked, prof),
		cfg:        cfg,
	}, nil
}

// String describes the module set (e.g. "ddr5-socket0: 1x64GiB DDR-4800").
func (d *DRAM) String() string {
	return fmt.Sprintf("%s: %dx%s DDR-%d", d.name, d.cfg.Channels, d.cfg.CapacityPerChannel, d.cfg.Rate)
}
