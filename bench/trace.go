package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"

	"cxlpmem/internal/cxl"
	"cxlpmem/internal/memdev"
	"cxlpmem/internal/pmemfs"
)

// layer is a span's place in the persistence stack. The benchmark times
// each layer from outside the program, around the calls into it: the
// workload's own calls, plus wrappers over the three interfaces the
// stack lets a caller substitute (pmem.Region, pmemfs.Accessor and
// cxl.MemIO).
type layer uint8

const (
	// layerOp is the workload's op: Pool.Update, OpenPool, one STREAM
	// iteration or one C/R step.
	layerOp layer = iota
	// layerKernel is STREAM's four kernels over the pool-mapped arrays.
	layerKernel
	// layerPersist is PmemArrays.Persist.
	layerPersist
	// layerSave and layerDelete are checkpoint.Manager calls.
	layerSave
	layerDelete
	// layerPmemfs is a pmem.Region call, served by a pmemfs.File.
	layerPmemfs
	// layerWindow is a pmemfs.Accessor call, served by the node's
	// window-translated cxl.MemIO.
	layerWindow
	// layerMemIO is a cxl.MemIO call under the window: the root port on
	// a 1-way machine, the interleave set on a striped one.
	layerMemIO
	numLayers
)

var layerNames = [numLayers]string{
	"op", "stream.kernel", "stream.persist", "checkpoint.save",
	"checkpoint.delete", "pmemfs", "cxl.window", "cxl.memio",
}

// keepEvery is the op sampling stride for the span log.
const keepEvery = 64

// span is one recorded interval of a sampled op.
type span struct {
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index into the span log; -1 for an op's root
}

type frame struct {
	l     layer
	start int64
	child int64 // raw time covered by direct children
	kids  int64 // direct children
	desc  int64 // all descendants
	idx   int32 // position in the span log, -1 when the op is not sampled
}

// tracer accumulates per-layer time over every traced op and keeps the
// full span tree of every keepEvery-th op. It is driven from the one
// client goroutine: all wrapped calls happen on it (interleave legs run
// below the cxl.MemIO wrapper).
type tracer struct {
	// on gates every span: the measured loop switches it per block, so
	// one run yields traced and untraced samples of the same ops.
	on bool
	// keep records the span log.
	keep bool
	ops  int64

	stack                        []frame
	raw, self, calls, kids, desc [numLayers]int64
	regionBytes                  int64
	// wideCalls counts MemIO calls longer than one line.
	wideCalls int64
	spans     []span

	// clock reads the time; nil means now.
	clock func() int64

	// spanIn is the tracing cost a span's own interval contains; spanOut
	// is what each child adds to its parent's self time outside the
	// child's interval. calibrate measures both on empty spans;
	// matchOverhead rescales them to the overhead a run observed.
	spanIn, spanOut float64
}

func (t *tracer) begin(l layer) {
	if t == nil || !t.on {
		return
	}
	f := frame{l: l, idx: -1}
	if t.keep && t.ops%keepEvery == 0 {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].idx
		}
		f.idx = int32(len(t.spans))
		t.spans = append(t.spans, span{Op: t.ops, Name: layerNames[l], Parent: parent})
	}
	f.start = t.now()
	t.stack = append(t.stack, f)
}

func (t *tracer) end() {
	if t == nil || !t.on {
		return
	}
	end := t.now()
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := end - f.start
	t.raw[f.l] += d
	t.self[f.l] += d - f.child
	t.calls[f.l]++
	t.kids[f.l] += f.kids
	t.desc[f.l] += f.desc
	if f.idx >= 0 {
		t.spans[f.idx].Start, t.spans[f.idx].End = f.start, end
	}
	if n == 0 {
		t.ops++
		return
	}
	p := &t.stack[n-1]
	p.child += d
	p.kids++
	p.desc += f.desc + 1
}

func (t *tracer) now() int64 {
	if t.clock != nil {
		return t.clock()
	}
	return now()
}

// selfNs is layer l's total self time — its spans minus their child
// spans — with the tracer's own timer reads taken out.
func (t *tracer) selfNs(l layer) float64 {
	return float64(t.self[l]) - float64(t.calls[l])*t.spanIn - float64(t.kids[l])*t.spanOut
}

// durNs is layer l's total span time, children included, with the
// tracer's own timer reads taken out.
func (t *tracer) durNs(l layer) float64 {
	return float64(t.raw[l]) - float64(t.calls[l])*t.spanIn - float64(t.desc[l])*(t.spanIn+t.spanOut)
}

// calibrate measures the timer cost one span adds, from 20000 empty
// parent/child pairs on a scratch tracer: the median empty child is
// spanIn, and the median parent self time beyond its own spanIn is
// spanOut.
func (t *tracer) calibrate() {
	const n = 20000
	c := &tracer{on: true}
	in := make([]int64, n)
	out := make([]int64, n)
	for i := range in {
		child, parentSelf := c.raw[layerPmemfs], c.self[layerOp]
		c.begin(layerOp)
		c.begin(layerPmemfs)
		c.end()
		c.end()
		in[i] = c.raw[layerPmemfs] - child
		out[i] = c.self[layerOp] - parentSelf
	}
	t.spanIn = median(in)
	t.spanOut = max(median(out)-t.spanIn, 0)
}

// matchOverhead rescales spanIn and spanOut, keeping their ratio, so
// that the spans of an op cost perOp ns in all: the measured difference
// between traced and untraced mean op time. Empty spans in a tight loop
// find the timer in cache; inside a real op each span costs more, and
// the compensation should remove what tracing actually added.
func (t *tracer) matchOverhead(perOp float64) {
	var spans int64
	for _, c := range t.calls {
		spans += c
	}
	model := float64(spans) / float64(max(t.ops, 1)) * (t.spanIn + t.spanOut)
	if model <= 0 || perOp <= 0 {
		return
	}
	t.spanIn *= perOp / model
	t.spanOut *= perOp / model
}

// writeSpans writes the sampled span log as one JSON array.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(t.spans); err != nil {
		f.Close()
		return fmt.Errorf("bench: write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("bench: write %s: %w", path, err)
	}
	return f.Close()
}

// tracedRegion is core's poolRegion — a pmemfs file as a pmem.Region,
// with power cycles forwarded to the node's media — plus a span around
// every data call.
type tracedRegion struct {
	*pmemfs.File
	dev memdev.Device
	tr  *tracer
}

func (r *tracedRegion) ReadAt(p []byte, off int64) error {
	if !r.tr.on {
		return r.File.ReadAt(p, off)
	}
	r.tr.regionBytes += int64(len(p))
	r.tr.begin(layerPmemfs)
	err := r.File.ReadAt(p, off)
	r.tr.end()
	return err
}

func (r *tracedRegion) WriteAt(p []byte, off int64) error {
	if !r.tr.on {
		return r.File.WriteAt(p, off)
	}
	r.tr.regionBytes += int64(len(p))
	r.tr.begin(layerPmemfs)
	err := r.File.WriteAt(p, off)
	r.tr.end()
	return err
}

func (r *tracedRegion) PowerCycle() { r.dev.PowerCycle() }

// tracedAccessor is the mount's pmemfs.Accessor: the node's window
// MemIO with a span around every call.
type tracedAccessor struct {
	io cxl.MemIO
	tr *tracer
}

func (a *tracedAccessor) ReadAt(p []byte, off int64) error {
	a.tr.begin(layerWindow)
	err := a.io.ReadAt(p, off)
	a.tr.end()
	return err
}

func (a *tracedAccessor) WriteAt(p []byte, off int64) error {
	a.tr.begin(layerWindow)
	err := a.io.WriteAt(p, off)
	a.tr.end()
	return err
}

// tracedMemIO sits under cxl.NewWindowIO, over the root port or
// interleave set. The window forwards each call to the same-named inner
// method and pmemfs reaches the window only through ReadAt and WriteAt,
// so those are the two calls that carry spans.
type tracedMemIO struct {
	cxl.MemIO
	tr *tracer
}

func (m *tracedMemIO) ReadAt(p []byte, off int64) error {
	m.count(p)
	m.tr.begin(layerMemIO)
	err := m.MemIO.ReadAt(p, off)
	m.tr.end()
	return err
}

func (m *tracedMemIO) WriteAt(p []byte, off int64) error {
	m.count(p)
	m.tr.begin(layerMemIO)
	err := m.MemIO.WriteAt(p, off)
	m.tr.end()
	return err
}

func (m *tracedMemIO) count(p []byte) {
	if m.tr.on && len(p) > cxl.LineSize {
		m.tr.wideCalls++
	}
}
