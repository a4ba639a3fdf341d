// Command bench times the paper's four persistence flows end to end over
// the simulated CXL.mem path — pmem → pmemfs → MemIO window → root port
// or interleave set → flit codec → Type-3 device → memdev — and checks
// that every byte they persisted reads back after the pool is reopened.
//
//	bench -workload tx-small [-seed N] [-seconds S] [-trace 0|1] [-trace-out FILE] [-procs P]
//
// The untraced run (-trace 0) prints the end-to-end metrics, each the
// median over P processes run one after another; the traced
// run (-trace 1) prints per-layer self times, layer counters and a rung
// ladder. Either way the last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"

	"cxlpmem/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one process's settings. The command line sets the first
// four; tests shrink the rest.
type config struct {
	seed     uint64
	measure  time.Duration
	trace    bool
	traceOut string
	// maxOps, when set, caps warm-up plus measured ops below the
	// workload's floor.
	maxOps int
	// rounds is the rung ladder's round count.
	rounds int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "tx-small, stream-pmem, checkpoint-4way or restart-4way")
	seed := fs.Uint64("seed", 1, "op generator seed")
	seconds := fs.Float64("seconds", 45, "measured seconds")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	traceOut := fs.String("trace-out", "", "write the sampled span log of a traced run to this file")
	procs := fs.Int("procs", 10, "untraced run: processes, one after another, that share the measured time")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specFor(*workload)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || *procs < 1 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: need -workload tx-small|stream-pmem|checkpoint-4way|restart-4way, -seconds > 0, -trace 0|1, -procs >= 1\n")
		return 2
	}
	if *trace == 0 && *procs > 1 {
		return runProcs(sp.name, *seed, *seconds, *procs, stdout, stderr)
	}
	cfg := config{
		seed:     *seed,
		measure:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		traceOut: *traceOut,
		rounds:   3000,
	}
	rep, err := execute(sp, cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", sp.name, err)
	}
	if rep == nil {
		return 1
	}
	emit(rep, stdout)
	if !rep.Correct {
		return 1
	}
	return 0
}

// emit prints the result line.
func emit(rep *report, w io.Writer) {
	line, _ := json.Marshal(rep) // plain structs and finite floats: cannot fail
	fmt.Fprintln(w, string(line))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are the untraced run's metrics, in print order.
var e2eMetrics = []metricDef{
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"payload_MBps", "MB/s"},
	{"setup_s", "s"},
	{"rss_MiB", "MiB"},
}

// outcome is what the measured loop observed.
type outcome struct {
	plain, traced samples
	// tail holds every untraced op time, for the tail diag lines.
	tail              *telemetry.Histogram
	attempted, failed int
	// ctr and persists cover every measured op's timed part (trace run).
	ctr      counters
	persists int64
	// allocBytes, allocs and gcs cover the untraced ops' timed parts
	// (trace run).
	allocBytes, allocs, gcs int64
}

// execute sets the workload up, measures it, verifies it and builds the
// report. A nil report means the run could not complete.
func execute(sp spec, cfg config, out io.Writer) (*report, error) {
	fmt.Fprintf(out, "workload %s seed %d trace %t %s GOMAXPROCS %d\n",
		sp.name, cfg.seed, cfg.trace, runtime.Version(), runtime.GOMAXPROCS(0))
	calib := hostCalibration()
	var tr *tracer
	if cfg.trace {
		tr = &tracer{keep: cfg.traceOut != ""}
		tr.calibrate()
	}
	e, f, setupS, err := setUp(sp, cfg, tr)
	if err != nil {
		return nil, err
	}
	defer e.close()
	var lt *ladderTimer
	if cfg.trace {
		rungs, err := ladderRungs(e)
		if err != nil {
			return nil, err
		}
		if lt, err = newLadderTimer(rungs, ladderSlots, now); err != nil {
			return nil, err
		}
	}
	o, err := measure(sp, cfg, e, f, lt)
	if err != nil {
		return nil, err
	}
	var rss float64
	if !cfg.trace {
		if rss, err = residentMiB(); err != nil {
			return nil, err
		}
	}
	var lad ladder
	if lt != nil {
		lad = lt.midMeans()
	}
	verr := f.verify()
	rep := &report{Correct: verr == nil, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	var defs []metricDef
	var diag []string
	if cfg.trace {
		defs = layerMetrics
		diag = layerValues(rep.Metrics, e, f, tr, o, lad)
		if cfg.traceOut != "" {
			if err := tr.writeSpans(cfg.traceOut); err != nil {
				return nil, err
			}
		}
	} else {
		defs = e2eMetrics
		e2eValues(rep.Metrics, o, setupS, rss)
	}
	for _, d := range defs {
		fmt.Fprintf(out, "%-34s %16.4f %s\n", d.name, rep.Metrics[d.name].Value, d.unit)
	}
	for _, d := range diag {
		fmt.Fprintln(out, d)
	}
	s := &o.plain
	var tail telemetry.HistSnapshot
	o.tail.Snapshot(&tail)
	fmt.Fprintf(out, "diag op_samples %d in %d windows\n", s.n, len(s.windows))
	tailUs := func(bp int) float64 { return float64(tail.Quantile(float64(bp)/1e4)) / 1e3 }
	fmt.Fprintf(out, "diag every_op.p50_us %.4f us\n", tailUs(5000))
	if p, ok := tailPercentile(int(s.n)); ok && p > 9000 {
		fmt.Fprintf(out, "diag tail.op_%s_us %.4f us (%d samples)\n", pctName(p), tailUs(p), s.n)
	}
	fmt.Fprintf(out, "diag host.calib_us %.4f us\n", calib)
	fmt.Fprintf(out, "diag fail_frac %.6f\n", float64(o.failed)/float64(max(o.attempted, 1)))
	if verr != nil {
		fmt.Fprintf(out, "verify FAILED: %v\n", verr)
		return rep, verr
	}
	fmt.Fprintln(out, "verify ok: every persisted byte read back after reopen")
	return rep, nil
}

// setUp builds the machine and the workload's pool and returns the
// seconds that took. It runs once per process: a second set-up in the
// same process refaults memory the first handed back to the OS, and took
// 4× as long as the first on tx-small, which no user pays.
func setUp(sp spec, cfg config, tr *tracer) (*env, flow, float64, error) {
	t0 := now()
	e, err := newEnv(sp.ways, tr)
	if err != nil {
		return nil, nil, 0, err
	}
	f, err := sp.build(e, cfg.seed)
	if err != nil {
		e.close()
		return nil, nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return e, f, float64(now()-t0) / 1e9, nil
}

// blockNs is the length of one traced or untraced block in a trace run.
const blockNs = 20e6

// minOps is the measured loop's op floor, however short the measured
// time: 200 ops leave 10 samples beyond the p95, as minBeyond asks.
const minOps = 200

// measure runs the untimed warm-up, then the measured closed loop: one
// client, the next op issued when the previous returns, for cfg.measure
// and at least the workload's op floor. A trace run alternates blocks
// of untraced and traced ops so both see the same host conditions, and
// runs cfg.rounds ladder rounds spread over the block boundaries.
func measure(sp spec, cfg config, e *env, f flow, lt *ladderTimer) (outcome, error) {
	// limit caps warm-up plus measured ops; 0 means no cap.
	limit := int64(cfg.maxOps)
	// Warm-up: 5% of the measured time (5% of the cap, if one is set),
	// after set-up has written every object once.
	warmEnd := now() + int64(cfg.measure/20)
	var warmN, warmNs int64
	for {
		if err := f.prepare(); err != nil {
			return outcome{}, fmt.Errorf("warm-up: %w", err)
		}
		t0 := now()
		if _, err := f.run(); err != nil {
			return outcome{}, fmt.Errorf("warm-up: %w", err)
		}
		warmNs += now() - t0
		warmN++
		if now() >= warmEnd || (limit > 0 && warmN >= max(limit/20, 1)) {
			break
		}
	}
	floor := int64(minOps)
	if limit > 0 {
		limit = max(limit-warmN, 1)
		floor = min(floor, limit)
	}

	block, perBoundary := int64(1), 0
	if cfg.trace {
		block = max(int64(blockNs)/max(warmNs/warmN, 1), 1)
		if limit > 0 {
			// A capped run still gets traced and untraced ops.
			block = min(block, max(limit/4, 1))
		}
		blocks := max(int64(cfg.measure)/(block*max(warmNs/warmN, 1)), 1)
		perBoundary = int((int64(cfg.rounds) + blocks - 1) / blocks)
	}
	rm := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}, {Name: "/gc/cycles/total:gc-cycles"}}
	rm0 := slices.Clone(rm)
	o := outcome{tail: telemetry.NewHistogram()}
	start := now()
	nextWindow := start + windowNs
	for n := int64(0); ; n++ {
		if (limit > 0 && n >= limit) || (n >= floor && now()-start >= int64(cfg.measure)) {
			break
		}
		if lt != nil && n%block == 0 && lt.round < cfg.rounds {
			if err := lt.run(min(perBoundary, cfg.rounds-lt.round)); err != nil {
				return o, err
			}
		}
		if err := f.prepare(); err != nil {
			return o, err
		}
		traced := cfg.trace && (n/block)%2 == 1
		var before counters
		var p0 int64
		if cfg.trace {
			before, p0 = e.counters(), f.persists()
			if !traced {
				metrics.Read(rm0)
			}
			e.tr.on = traced
		}
		t0 := now()
		e.tr.begin(layerOp)
		payload, err := f.run()
		e.tr.end()
		dt := now() - t0
		o.attempted++
		if err != nil {
			o.failed++
		}
		if cfg.trace {
			e.tr.on = false
			o.ctr.addDelta(e.counters(), before)
			o.persists += f.persists() - p0
			if !traced {
				metrics.Read(rm)
				o.allocBytes += int64(rm[0].Value.Uint64() - rm0[0].Value.Uint64())
				o.allocs += int64(rm[1].Value.Uint64() - rm0[1].Value.Uint64())
				o.gcs += int64(rm[2].Value.Uint64() - rm0[2].Value.Uint64())
			}
		}
		if err != nil {
			continue
		}
		if traced {
			o.traced.add(dt, payload)
		} else {
			o.plain.add(dt, payload)
			o.tail.Record(dt)
		}
		if t := now(); t >= nextWindow {
			o.plain.closeWindow()
			o.traced.closeWindow()
			nextWindow = t + windowNs
		}
	}
	o.plain.closeWindow()
	o.traced.closeWindow()
	if lt != nil && lt.round < cfg.rounds {
		if err := lt.run(cfg.rounds - lt.round); err != nil {
			return o, err
		}
	}
	if o.attempted == 0 {
		return o, errors.New("no op ran")
	}
	return o, nil
}

// e2eValues fills the untraced run's metrics.
func e2eValues(m map[string]metric, o outcome, setupS, rss float64) {
	set := func(name string, v float64) { m[name] = metric{Value: v, Unit: unitOf(e2eMetrics, name)} }
	s := o.plain.summarize()
	set("ops_per_s", s.opsPerS)
	set("op_p50_us", s.p50/1e3)
	set("payload_MBps", s.payloadMBps)
	set("setup_s", setupS)
	set("rss_MiB", rss)
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("bench: undeclared metric " + name)
}

// residentMiB collects garbage, hands freed memory back to the OS and
// returns the process's resident set (VmRSS): the machine, the pool and
// what the workload keeps, without the garbage whose amount at any
// moment depends on when the collector last ran. The high-water mark
// (VmHWM) has that dependence, and moved by up to 12% between runs.
func residentMiB() (float64, error) {
	debug.FreeOSMemory()
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("resident set: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if kb, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(kb, "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("resident set: %q: %w", line, err)
			}
			return v / 1024, nil
		}
	}
	return 0, errors.New("resident set: no VmRSS line in /proc/self/status")
}
