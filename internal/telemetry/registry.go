package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
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

// histogram emits a registry-owned histogram's snapshot.
func (e *Emitter) histogram(name, labels string, h *Histogram) {
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

// Registry is the process-wide metric namespace: owned histograms and
// the collector hooks that pull in every subsystem's existing counters
// (scalars are always emitted by collectors). All registration is
// cold-path; Gather is the only reader and walks a point-in-time
// snapshot of the registration lists.
type Registry struct {
	mu         sync.Mutex
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

// Gather walks every owned histogram and collector and returns the
// samples sorted by name then label set — a deterministic exposition
// order, so diffs of two gathers line up.
func (r *Registry) Gather() []Sample {
	r.mu.Lock()
	hists := append([]namedHist(nil), r.hists...)
	collectors := append([]Collector(nil), r.collectors...)
	r.mu.Unlock()

	e := &Emitter{samples: make([]Sample, 0, len(hists)+16)}
	for _, nh := range hists {
		e.histogram(nh.name, nh.labels, nh.h)
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
