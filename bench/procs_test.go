package main

import (
	"bytes"
	"strings"
	"testing"
)

// A multi-process run is correct only if every process was, counts
// every process's ops, and reports each timing metric's best process and
// rss_MiB's median.
func TestCombineReports(t *testing.T) {
	proc := func(correct bool, attempted, failed int, ops, setup float64) *report {
		return &report{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metric{
			"ops_per_s": {ops, "1/s"},
			"op_p50_us": {1e6 / ops, "us"},
			"setup_s":   {setup, "s"},
			"rss_MiB":   {ops / 100, "MiB"},
		}}
	}
	got, err := combineReports([]*report{
		proc(true, 100, 0, 900, 0.3),
		proc(true, 120, 1, 1000, 0.1),
		proc(true, 110, 0, 2000, 0.2),
		proc(true, 90, 0, 950, 0.4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Correct || got.Attempted != 420 || got.Failed != 1 {
		t.Errorf("combined %+v", got)
	}
	if m := got.Metrics["ops_per_s"]; m.Value != 2000 || m.Unit != "1/s" {
		t.Errorf("ops_per_s = %+v, want the highest 2000 1/s", m)
	}
	if m := got.Metrics["op_p50_us"]; m.Value != 500 || m.Unit != "us" {
		t.Errorf("op_p50_us = %+v, want the lowest 500 us", m)
	}
	if m := got.Metrics["rss_MiB"]; m.Value != 9.75 || m.Unit != "MiB" {
		t.Errorf("rss_MiB = %+v, want the median 9.75 MiB", m)
	}
	if m := got.Metrics["setup_s"]; m.Value != 0.1 || m.Unit != "s" {
		t.Errorf("setup_s = %+v, want the fastest 0.1 s", m)
	}

	got, err = combineReports([]*report{proc(true, 1, 0, 1, 1), proc(false, 1, 0, 1, 1)})
	if err != nil || got.Correct {
		t.Errorf("one failed verification: %+v, %v", got, err)
	}
	if _, err := combineReports([]*report{proc(true, 1, 0, 1, 1), {Metrics: map[string]metric{"ops_per_s": {1, "1/s"}}}}); err == nil {
		t.Error("a process missing a metric was combined")
	}
	if _, err := combineReports(nil); err == nil {
		t.Error("no processes combined")
	}
}

// A process's output splits into its text and its result line; output
// without a result line keeps all its text and gives no result.
func TestSplitResult(t *testing.T) {
	var out bytes.Buffer
	out.WriteString("workload tx-small\nverify ok\n")
	emit(&report{Correct: true, Attempted: 3, Metrics: map[string]metric{"setup_s": {0.5, "s"}}}, &out)
	body, rep := splitResult(out.Bytes())
	if string(body) != "workload tx-small\nverify ok\n" {
		t.Errorf("body %q", body)
	}
	if rep == nil || !rep.Correct || rep.Attempted != 3 || rep.Metrics["setup_s"].Value != 0.5 {
		t.Errorf("result %+v", rep)
	}
	for _, text := range []string{"", "bench: set-up failed\n", "workload tx-small\n{\"correct\":true}\n"} {
		body, rep := splitResult([]byte(text))
		if rep != nil || !strings.Contains(string(body), strings.TrimSpace(text)) {
			t.Errorf("%q split into %q and %+v", text, body, rep)
		}
	}
}
