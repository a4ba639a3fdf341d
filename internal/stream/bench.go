package stream

import (
	"fmt"

	"cxlpmem/internal/perf"
	"cxlpmem/internal/topology"
	"cxlpmem/internal/units"
)

// Bench runs the STREAM methodology of §3.2 against one machine
// configuration: a set of compute cores (placed by internal/numa), a
// target memory node, and an access mode (Memory Mode or App-Direct).
type Bench struct {
	// Engine supplies modelled rates.
	Engine *perf.Engine
	// Cores the OpenMP threads are pinned to.
	Cores []topology.Core
	// Node is the memory target (the paper's pmem#/numa# annotation).
	Node topology.NodeID
	// Mode selects Memory Mode (numa#) or App-Direct (pmem#).
	Mode perf.AccessMode
}

// Config controls one STREAM run.
type Config struct {
	// N is the per-array element count (DefaultN if zero).
	N int
	// NTimes is the iteration count (STREAM default 10).
	NTimes int
	// Scalar for Scale/Triad (DefaultScalar if zero).
	Scalar float64
	// Workers bounds the real goroutines used for the data pass
	// (0 = GOMAXPROCS).
	Workers int
	// ModelOnly skips the real data movement: the figures' wide
	// parameter sweeps only need the modelled times.
	ModelOnly bool
	// Seed makes the iteration-time spread reproducible.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N = DefaultN
	}
	if c.NTimes == 0 {
		c.NTimes = 10
	}
	if c.Scalar == 0 {
		c.Scalar = DefaultScalar
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// Run executes the four kernels ntimes each over arr and reports one
// Result per kernel in STREAM order. When cfg.ModelOnly is false the
// data movement is real and the arrays are validated afterwards.
func (b *Bench) Run(arr Arrays, cfg Config) ([]Result, error) {
	cfg = cfg.withDefaults()
	if b.Engine == nil {
		return nil, fmt.Errorf("stream: bench has no engine")
	}
	if len(b.Cores) == 0 {
		return nil, fmt.Errorf("stream: bench has no cores")
	}
	n := cfg.N
	if !cfg.ModelOnly {
		if arr == nil {
			return nil, fmt.Errorf("stream: real run needs arrays")
		}
		n = len(arr.A())
		Init(arr)
	}

	results := make([]Result, 0, len(Ops))
	for _, op := range Ops {
		r, err := b.Engine.StreamBandwidth(b.Cores, b.Node, op.Mix(), b.Mode)
		if err != nil {
			return nil, err
		}
		bytes := units.Size(int64(op.BytesPerElement()) * int64(n))
		times := timesFromRate(bytes, r.Total, cfg.NTimes, cfg.Seed+int64(op))
		results = append(results, summarize(op, bytes, times))
	}

	if !cfg.ModelOnly {
		for k := 0; k < cfg.NTimes; k++ {
			for _, op := range Ops {
				if err := Execute(op, arr, cfg.Scalar, cfg.Workers); err != nil {
					return nil, err
				}
			}
		}
		if err := validate(arr, cfg.NTimes, cfg.Scalar); err != nil {
			return nil, err
		}
		if err := arr.Persist(); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Rate returns just the modelled sustained bandwidth for one kernel —
// the quantity the paper's figures plot.
func (b *Bench) Rate(op Op) (units.Bandwidth, error) {
	r, err := b.Engine.StreamBandwidth(b.Cores, b.Node, op.Mix(), b.Mode)
	if err != nil {
		return 0, err
	}
	return r.Total, nil
}

// Header returns STREAM's report header line.
func Header() string {
	return fmt.Sprintf("%-6s %12s %11s %11s %11s", "Func", "BestMB/s", "AvgTime", "MinTime", "MaxTime")
}
