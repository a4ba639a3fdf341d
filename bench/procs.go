package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"syscall"
)

// runProcs runs an untraced measurement as procs fresh processes of this
// program, one after another, each measuring seconds/procs, and combines
// their metrics (combineReports). Much of a run's speed comes with its
// process: on a 2-vCPU KVM guest of a shared Xeon host, a tx-small
// process runs at ~3.0 µs per op or at ~5.5 µs for most of its life,
// and which one it gets changes from process to process.
// A process's memory placement is the likely cause: a 64 MiB random-read
// loop took 7.1–11.9 ns per read in six back-to-back processes, and a
// cache-resident one 2.24 ns in each. setup_s gets one set-up per
// process, each in a fresh process as a user's is. One process at a
// time keeps the load model: one client on one CPU.
func runProcs(workload string, seed uint64, seconds float64, procs int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	var reps []*report
	for i := 1; i <= procs; i++ {
		fmt.Fprintf(stdout, "process %d of %d\n", i, procs)
		var out bytes.Buffer
		cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(seconds/float64(procs), 'g', -1, 64), "-trace", "0", "-procs", "1")
		cmd.Stdout, cmd.Stderr = &out, stderr
		// The process dies with this one, however this one ends.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		runErr := cmd.Run()
		body, rep := splitResult(out.Bytes())
		stdout.Write(body)
		if rep == nil {
			fmt.Fprintf(stderr, "bench: process %d of %d printed no result: %v\n", i, procs, runErr)
			return 1
		}
		reps = append(reps, rep)
		if !rep.Correct {
			break
		}
	}
	rep, err := combineReports(reps)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "best of %d processes; rss_MiB: their median\n", len(reps))
	for _, d := range e2eMetrics {
		fmt.Fprintf(stdout, "%-34s %16.4f %s\n", d.name, rep.Metrics[d.name].Value, d.unit)
	}
	emit(rep, stdout)
	if !rep.Correct {
		return 1
	}
	return 0
}

// splitResult splits a run's standard output into the lines before the
// result line and the parsed result, nil if the last line is not one.
func splitResult(out []byte) ([]byte, *report) {
	out = bytes.TrimRight(out, "\n")
	i := bytes.LastIndexByte(out, '\n') + 1
	var rep report
	if err := json.Unmarshal(out[i:], &rep); err != nil || rep.Metrics == nil {
		return append(out, '\n'), nil
	}
	return out[:i], &rep
}

// highestIsBest marks each end-to-end timing metric whose best process
// reads highest; combineReports takes the median of the others.
var highestIsBest = map[string]bool{"ops_per_s": true, "payload_MBps": true, "op_p50_us": false, "setup_s": false}

// combineReports combines the results of several processes: it is correct
// only if each was, counts every op they attempted and every one that
// failed, and gives each timing metric its best process's value and
// rss_MiB its median. The best process is the one the host slowed
// least: over ten 45 s runs of ten processes each, the best process's
// op_p50_us spread 13% (tx-small) and 13% (checkpoint-4way) between
// runs, the median process's 26% and 53%.
func combineReports(reps []*report) (*report, error) {
	if len(reps) == 0 {
		return nil, errors.New("no process ran")
	}
	rep := &report{Correct: true, Metrics: map[string]metric{}}
	for _, r := range reps {
		rep.Correct = rep.Correct && r.Correct
		rep.Attempted += r.Attempted
		rep.Failed += r.Failed
	}
	for name, m := range reps[0].Metrics {
		vals := make([]float64, 0, len(reps))
		for _, r := range reps {
			v, ok := r.Metrics[name]
			if !ok || v.Unit != m.Unit {
				return nil, fmt.Errorf("metric %s missing or in another unit in one process", name)
			}
			vals = append(vals, v.Value)
		}
		v := median(vals)
		switch highest, timing := highestIsBest[name]; {
		case timing && highest:
			v = slices.Max(vals)
		case timing:
			v = slices.Min(vals)
		}
		rep.Metrics[name] = metric{Value: v, Unit: m.Unit}
	}
	return rep, nil
}
