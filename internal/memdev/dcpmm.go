package memdev

import (
	"fmt"

	"cxlpmem/internal/units"
)

// Published single-module Optane DCPMM figures the paper compares against
// (§1.4, citing Izraelevitz et al.): max read 6.6 GB/s, max write 2.3
// GB/s, with read latency around 300 ns for random access.
const (
	DCPMMReadPeakGBps  = 6.6
	DCPMMWritePeakGBps = 2.3
	DCPMMIdleLatencyNs = 305
)

// DCPMMConfig describes an Optane DC Persistent Memory module set.
type DCPMMConfig struct {
	Name     string
	Modules  int
	Capacity units.Size // per module
	// Interleaved module sets scale bandwidth nearly linearly; the
	// paper's single-module comparison uses Modules=1.
}

// DCPMM models an Optane module set. It is genuinely non-volatile: it
// survives PowerCycle without a battery.
type DCPMM struct {
	*baseDevice
	cfg DCPMMConfig
}

// NewDCPMM builds a DCPMM device.
func NewDCPMM(cfg DCPMMConfig) (*DCPMM, error) {
	if cfg.Modules <= 0 {
		return nil, fmt.Errorf("memdev: %s: modules must be positive, got %d", cfg.Name, cfg.Modules)
	}
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("memdev: %s: capacity must be positive", cfg.Name)
	}
	n := float64(cfg.Modules)
	prof := Profile{
		ReadPeak:    units.GBps(DCPMMReadPeakGBps * n),
		WritePeak:   units.GBps(DCPMMWritePeakGBps * n),
		IdleLatency: units.Nanoseconds(DCPMMIdleLatencyNs),
		Kind:        KindDCPMM,
	}
	total := units.Size(int64(cfg.Capacity) * int64(cfg.Modules))
	return &DCPMM{
		baseDevice: newBaseDevice(cfg.Name, total, true, prof),
		cfg:        cfg,
	}, nil
}

func (d *DCPMM) String() string {
	return fmt.Sprintf("%s: %dx%s Optane DCPMM", d.name, d.cfg.Modules, d.cfg.Capacity)
}
