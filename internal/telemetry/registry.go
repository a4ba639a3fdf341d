package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric sample.
type Kind uint8

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is an instantaneous value that may move both ways.
	KindGauge
	// KindHistogram is a latency/size distribution with quantiles.
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Sample is one gathered metric: a name, a pre-rendered Prometheus
// label set (`{k="v",...}` or empty), and either a scalar value or a
// histogram snapshot.
type Sample struct {
	Name   string
	Labels string
	Kind   Kind
	Value  float64
	Hist   *HistSnapshot
}

// Labels renders alternating key/value pairs as a Prometheus label set.
// Values are quote-escaped; an empty argument list renders as "".
func Labels(kv ...string) string {
	if len(kv) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		v := kv[i+1]
		if strings.ContainsAny(v, `"\`+"\n") {
			v = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(v)
		}
		b.WriteString(v)
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// Emitter receives samples during a Gather walk. Collectors call its
// typed methods; the registry owns the backing slice.
type Emitter struct {
	samples []Sample
}

// Counter emits a monotonic count.
func (e *Emitter) Counter(name, labels string, v int64) {
	e.samples = append(e.samples, Sample{Name: name, Labels: labels, Kind: KindCounter, Value: float64(v)})
}

// Gauge emits an instantaneous value.
func (e *Emitter) Gauge(name, labels string, v float64) {
	e.samples = append(e.samples, Sample{Name: name, Labels: labels, Kind: KindGauge, Value: v})
}

// Histogram emits a histogram snapshot.
func (e *Emitter) Histogram(name, labels string, h *Histogram) {
	s := new(HistSnapshot)
	h.Snapshot(s)
	e.samples = append(e.samples, Sample{Name: name, Labels: labels, Kind: KindHistogram, Hist: s})
}

// Collector is a subsystem hook: called during Gather, it snapshots
// counters the subsystem already maintains (atomics on its own hot
// paths) and emits them. Collectors must be safe to call concurrently
// with the subsystem's traffic — which they are for free when they only
// Load atomic counters.
type Collector func(e *Emitter)

// Registry is the process-wide metric namespace: owned scalar metrics
// (counters and gauges allocated here), owned histograms, and the
// collector hooks that pull in every subsystem's existing counters. All
// registration is cold-path; Gather is the only reader and walks a
// point-in-time snapshot of the registration lists.
type Registry struct {
	mu         sync.Mutex
	counters   []*Counter
	gauges     []*Gauge
	hists      []namedHist
	collectors []Collector
}

type namedHist struct {
	name   string
	labels string
	h      *Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter is a registry-owned monotonic counter.
type Counter struct {
	name   string
	labels string
	v      atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a registry-owned instantaneous value.
type Gauge struct {
	name   string
	labels string
	v      atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// NewCounter allocates and registers a counter.
func (r *Registry) NewCounter(name, labels string) *Counter {
	c := &Counter{name: name, labels: labels}
	r.mu.Lock()
	r.counters = append(r.counters, c)
	r.mu.Unlock()
	return c
}

// NewGauge allocates and registers a gauge.
func (r *Registry) NewGauge(name, labels string) *Gauge {
	g := &Gauge{name: name, labels: labels}
	r.mu.Lock()
	r.gauges = append(r.gauges, g)
	r.mu.Unlock()
	return g
}

// NewHistogram allocates and registers a histogram.
func (r *Registry) NewHistogram(name, labels string) *Histogram {
	h := NewHistogram()
	r.mu.Lock()
	r.hists = append(r.hists, namedHist{name: name, labels: labels, h: h})
	r.mu.Unlock()
	return h
}

// RegisterCollector adds a subsystem hook to the Gather walk.
func (r *Registry) RegisterCollector(c Collector) {
	r.mu.Lock()
	r.collectors = append(r.collectors, c)
	r.mu.Unlock()
}

// Gather walks every owned metric and collector and returns the samples
// sorted by name then label set — a deterministic exposition order, so
// diffs of two gathers line up.
func (r *Registry) Gather() []Sample {
	r.mu.Lock()
	counters := append([]*Counter(nil), r.counters...)
	gauges := append([]*Gauge(nil), r.gauges...)
	hists := append([]namedHist(nil), r.hists...)
	collectors := append([]Collector(nil), r.collectors...)
	r.mu.Unlock()

	e := &Emitter{samples: make([]Sample, 0, len(counters)+len(gauges)+len(hists)+16)}
	for _, c := range counters {
		e.Counter(c.name, c.labels, c.v.Load())
	}
	for _, g := range gauges {
		e.Gauge(g.name, g.labels, float64(g.v.Load()))
	}
	for _, nh := range hists {
		e.Histogram(nh.name, nh.labels, nh.h)
	}
	for _, c := range collectors {
		c(e)
	}
	sort.SliceStable(e.samples, func(i, j int) bool {
		if e.samples[i].Name != e.samples[j].Name {
			return e.samples[i].Name < e.samples[j].Name
		}
		return e.samples[i].Labels < e.samples[j].Labels
	})
	return e.samples
}
