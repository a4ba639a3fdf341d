package main

import (
	"fmt"

	"cxlpmem/internal/cxl"
)

// layerMetrics are the traced run's metrics, in print order. Times and
// counts are per op unless the name says otherwise. Every workload has
// every time metric: a layer only some workloads reach, such as STREAM's
// kernels or the interleave rung, is a diag line, since a time that
// reads 0 on every run is no measurement.
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{"trace.op_us", "us"},
		{"trace.overhead_pct", "%"},
		{"op.self_us", "us"},
		{"pmem.region_calls", "count"},
		{"pmem.region_bytes", "B"},
		{"pmem.persists", "count"},
		{"pmemfs.self_us", "us"},
		{"cxl.window.self_us", "us"},
		{"cxl.memio.us", "us"},
		{"cxl.port.descriptors", "count"},
		{"cxl.port.doorbells", "count"},
		{"cxl.port.retries", "count"},
		{"cxl.port.timeouts", "count"},
		{"cxl.interleave.leg_skew", "ratio"},
		{"cxl.device.line_reads", "count"},
		{"cxl.device.line_writes", "count"},
		{"cxl.device.partial_writes", "count"},
		{"cxl.device.bursts", "count"},
		{"cxl.device.burst_lines", "count"},
		{"cxl.device.line_fallbacks", "count"},
		{"memdev.bytes_read", "B"},
		{"memdev.bytes_written", "B"},
		{"memdev.write_amp", "ratio"},
		{"checkpoint.reuse_ratio", "ratio"},
		{"go.alloc_bytes", "B"},
		{"go.allocs", "count"},
		{"go.gc_per_kop", "count"},
	}
	for _, r := range rungNames {
		if r == "interleave" {
			continue
		}
		for _, k := range kindNames {
			defs = append(defs, metricDef{"ladder." + r + "." + k + "_ns", "ns"})
		}
	}
	return defs
}()

// rungCost estimates the time one rung's calls would take to carry the
// device transactions in c: each line op and partial write at the
// rung's time for that shape, and a burst of n lines as one line op
// plus n-1 extra beats at the slope between the rung's 64-byte and
// 4 KiB times.
func rungCost(lad ladder, name string, c counters) float64 {
	r := lad[name]
	lr, lw, pw := float64(c[cLineReads]), float64(c[cLineWrites]), float64(c[cPartialWrites])
	rdLines := float64(c[cMediaRead])/float64(cxl.LineSize) - lr - pw
	wrLines := float64(c[cMediaWritten])/float64(cxl.LineSize) - lw - pw
	burst := func(n, lines, c64, c4k float64) float64 {
		if n == 0 {
			return 0
		}
		return n*c64 + (lines-n)*(c4k-c64)/(cxl.MaxBurstLines-1)
	}
	return lr*r[k64Read] + lw*r[k64Write] + pw*r[k4Write] +
		burst(float64(c[cReadBursts]), rdLines, r[k64Read], r[k4kRead]) +
		burst(float64(c[cWriteBursts]), wrLines, r[k64Write], r[k4kWrite])
}

// layerValues fills the traced run's metrics and returns its diag lines:
// the layers only this workload reaches, and the ladder-priced split of
// the MemIO time, which is an estimate.
func layerValues(m map[string]metric, e *env, f flow, tr *tracer, o outcome, lad ladder) []string {
	set := func(name string, v float64) { m[name] = metric{Value: v, Unit: unitOf(layerMetrics, name)} }
	ops := float64(max(tr.ops, 1))
	us := func(ns float64) float64 { return ns / ops / 1e3 }
	all := float64(o.plain.n + o.traced.n)
	per := func(v int64) float64 { return float64(v) / all }

	mean := func(s samples) float64 { return float64(s.ns) / float64(max(s.n, 1)) }
	plainP50 := o.plain.summarize().p50
	overhead := 100 * (o.traced.summarize().p50 - plainP50) / plainP50
	set("trace.overhead_pct", overhead)
	// Rescale the timer compensation to the cost tracing really added
	// only when that cost is a large share of the op, as with tx-small's
	// 25 spans around 3–6 µs. A few percent of a long op is mostly noise,
	// and spreading it over the spans would drive small layers negative.
	if overhead >= 20 {
		tr.matchOverhead(mean(o.traced) - mean(o.plain))
	}
	opNs := tr.durNs(layerOp)
	set("trace.op_us", us(opNs))

	// Self time of the workload's own calls, above the pmem.Region seam:
	// pmem's for the pmem flows; checkpoint's, with the pmem calls inside
	// it, which are not separable from outside; STREAM's kernels and
	// pmem's Persist.
	above := tr.selfNs(layerOp) + tr.selfNs(layerKernel) + tr.selfNs(layerPersist) +
		tr.selfNs(layerSave) + tr.selfNs(layerDelete)
	var diag []string
	switch f := f.(type) {
	case *streamFlow:
		diag = append(diag,
			fmt.Sprintf("diag stream.kernel_us %.4f us", us(tr.durNs(layerKernel))),
			fmt.Sprintf("diag stream.persist_us %.4f us", us(tr.durNs(layerPersist))))
	case *ckptFlow:
		if f.chunks > 0 {
			set("checkpoint.reuse_ratio", float64(f.reused)/float64(f.chunks))
		}
	}
	set("op.self_us", us(above))
	set("pmem.region_calls", float64(tr.calls[layerPmemfs])/ops)
	set("pmem.region_bytes", float64(tr.regionBytes)/ops)
	set("pmem.persists", per(o.persists))
	set("pmemfs.self_us", us(tr.selfNs(layerPmemfs)))
	set("cxl.window.self_us", us(tr.selfNs(layerWindow)))
	set("cxl.memio.us", us(tr.durNs(layerMemIO)))

	c := o.ctr
	set("cxl.port.descriptors", per(c[cDescriptors]))
	set("cxl.port.doorbells", per(c[cDoorbells]))
	set("cxl.port.retries", per(c[cRetries]))
	set("cxl.port.timeouts", per(c[cTimeouts]))
	legs := c[cLegBytes : cLegBytes+len(e.legs)]
	var sum, most int64
	for _, b := range legs {
		sum += b
		most = max(most, b)
	}
	if sum > 0 {
		set("cxl.interleave.leg_skew", float64(most)*float64(len(legs))/float64(sum))
	}
	set("cxl.device.line_reads", per(c[cLineReads]))
	set("cxl.device.line_writes", per(c[cLineWrites]))
	set("cxl.device.partial_writes", per(c[cPartialWrites]))
	set("cxl.device.bursts", per(c[cReadBursts]+c[cWriteBursts]))
	set("cxl.device.burst_lines", per(c[cBurstLines]))
	set("cxl.device.line_fallbacks", per(c[cLineFallbacks]))
	set("memdev.bytes_read", per(c[cMediaRead]))
	set("memdev.bytes_written", per(c[cMediaWritten]))
	if payload := o.plain.payload + o.traced.payload; payload > 0 {
		set("memdev.write_amp", float64(c[cMediaWritten])/float64(payload))
	}

	untraced := float64(max(o.plain.n, 1))
	set("go.alloc_bytes", float64(o.allocBytes)/untraced)
	set("go.allocs", float64(o.allocs)/untraced)
	set("go.gc_per_kop", 1e3*float64(o.gcs)/untraced)

	for _, r := range rungNames {
		v, ok := lad[r]
		for k, kn := range kindNames {
			name := "ladder." + r + "." + kn + "_ns"
			switch {
			case r != "interleave":
				set(name, v[k])
			case ok:
				diag = append(diag, fmt.Sprintf("diag %s %.4f ns", name, v[k]))
			}
		}
	}
	for _, d := range layerMetrics {
		if _, ok := m[d.name]; !ok {
			set(d.name, 0)
		}
	}

	// Estimates, per op: the device counters priced at the ladder's
	// rungs. On a striped node every MemIO call also pays the set's
	// fan-out, priced as its interleave rung less the port work the
	// rung's call carries: one line on one leg for a single-line call, a
	// 4 KiB call's share on every leg for a wider one. They are diag
	// lines, not metrics: in-op costs differ from the ladder's (colder
	// caches inside an op, legs that overlap on two CPUs), and
	// accounted_pct shows by how much.
	port, dev, md := rungCost(lad, "port", c)/all, rungCost(lad, "device", c)/all, rungCost(lad, "memdev", c)/all
	var fan float64
	if s := e.node.Stripe; s != nil {
		il, p := lad["interleave"], lad["port"]
		lines := float64(cxl.MaxBurstLines / s.Ways())
		leg := func(k64, k4k int) float64 { // one leg's 4 KiB share as one burst
			return p[k64] + (lines-1)*(p[k4k]-p[k64])/(cxl.MaxBurstLines-1)
		}
		narrow := (il[k64Read] - p[k64Read] + il[k64Write] - p[k64Write]) / 2
		wide := (il[k4kRead] - float64(s.Ways())*leg(k64Read, k4kRead) + il[k4kWrite] - float64(s.Ways())*leg(k64Write, k4kWrite)) / 2
		fan = (float64(tr.calls[layerMemIO]-tr.wideCalls)*narrow + float64(tr.wideCalls)*wide) / ops
	}
	aboveMemIO := above + tr.selfNs(layerPmemfs) + tr.selfNs(layerWindow)
	return append(diag,
		fmt.Sprintf("diag est.cxl.memio.us %.4f us", (fan+port)/1e3),
		fmt.Sprintf("diag est.cxl.interleave.self_us %.4f us", fan/1e3),
		fmt.Sprintf("diag est.cxl.port.self_us %.4f us", (port-dev)/1e3),
		fmt.Sprintf("diag est.cxl.device.self_us %.4f us", (dev-md)/1e3),
		fmt.Sprintf("diag est.memdev.us %.4f us", md/1e3),
		fmt.Sprintf("diag trace.accounted_pct %.1f %% (self times above MemIO plus est.cxl.memio.us, over trace.op_us)",
			100*(aboveMemIO/ops+fan+port)/(opNs/ops)),
	)
}
