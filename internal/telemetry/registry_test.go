package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRegistryGather checks that registered histograms and the scalars
// of several collector hooks all land in one deterministically sorted
// gather.
func TestRegistryGather(t *testing.T) {
	r := NewRegistry()
	var ops, depth atomic.Int64
	h := r.NewHistogram("mm_latency_ns", Labels("vc", "3"))
	r.RegisterCollector(func(e *Emitter) {
		e.Counter("zz_ops_total", "", ops.Load())
		e.Gauge("aa_depth", Labels("port", "0"), float64(depth.Load()))
	})
	r.RegisterCollector(func(e *Emitter) {
		e.Counter("kk_hook_total", Labels("src", "collector"), 7)
		e.Gauge("kk_hook_gauge", "", 2.5)
	})
	ops.Add(41)
	ops.Add(1)
	depth.Store(9)
	depth.Add(-2)
	h.Record(100)
	h.Record(200)

	samples := r.Gather()
	if len(samples) != 5 {
		t.Fatalf("gather returned %d samples, want 5", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i-1].Name > samples[i].Name {
			t.Fatalf("gather not sorted: %q after %q", samples[i].Name, samples[i-1].Name)
		}
	}
	byName := map[string]Sample{}
	for _, s := range samples {
		byName[s.Name] = s
	}
	if s := byName["zz_ops_total"]; s.Kind != KindCounter || s.Value != 42 {
		t.Fatalf("counter sample %+v", s)
	}
	if s := byName["aa_depth"]; s.Kind != KindGauge || s.Value != 7 || s.Labels != `{port="0"}` {
		t.Fatalf("gauge sample %+v", s)
	}
	if s := byName["mm_latency_ns"]; s.Kind != KindHistogram || s.Hist.Count != 2 || s.Hist.Sum != 300 {
		t.Fatalf("histogram sample %+v", s)
	}
	if s := byName["kk_hook_total"]; s.Value != 7 {
		t.Fatalf("collector counter %+v", s)
	}
	if s := byName["kk_hook_gauge"]; s.Kind != KindGauge || s.Value != 2.5 {
		t.Fatalf("collector gauge %+v", s)
	}
}

// TestLabels checks rendering and escaping.
func TestLabels(t *testing.T) {
	if got := Labels(); got != "" {
		t.Fatalf("empty labels = %q", got)
	}
	if got := Labels("a", "1", "b", "x"); got != `{a="1",b="x"}` {
		t.Fatalf("labels = %q", got)
	}
	if got := Labels("a", `q"u\o`+"\n"); got != `{a="q\"u\\o\n"}` {
		t.Fatalf("escaped labels = %q", got)
	}
}

// TestRegistryCollectDuringTraffic gathers concurrently with recorders
// mutating every metric type (run under -race): gathers must always see
// internally consistent, monotonically plausible values.
func TestRegistryCollectDuringTraffic(t *testing.T) {
	r := NewRegistry()
	var c atomic.Int64
	h := r.NewHistogram("traffic_latency_ns", "")
	var hookHits sync.Map
	r.RegisterCollector(func(e *Emitter) {
		hookHits.Store("hit", true)
		e.Counter("traffic_ops_total", "", c.Load())
	})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Add(1)
				h.Record(int64(i % 10000))
			}
		}()
	}
	var lastCount int64
	for i := 0; i < 200; i++ {
		for _, s := range r.Gather() {
			if s.Name == "traffic_ops_total" {
				if int64(s.Value) < lastCount {
					t.Errorf("counter went backwards: %v < %d", s.Value, lastCount)
				}
				lastCount = int64(s.Value)
			}
			if s.Name == "traffic_latency_ns" && s.Hist.Count > 0 {
				if q := s.Hist.Quantile(0.99); q < 0 || q > 20000 {
					t.Errorf("implausible p99 %d mid-traffic", q)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
	if _, ok := hookHits.Load("hit"); !ok {
		t.Fatalf("collector hook never ran")
	}
}

// TestWritePrometheus checks the text exposition format for each kind.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.RegisterCollector(func(e *Emitter) {
		e.Counter("ops_total", Labels("port", "1"), 3)
		e.Gauge("queue_depth", Labels("port", "1"), 1.5)
	})
	h := r.NewHistogram("lat_ns", Labels("vc", "0"))
	for i := int64(1); i <= 100; i++ {
		h.Record(i * 1000)
	}
	var b strings.Builder
	if err := writePrometheus(&b, r.Gather()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE ops_total counter",
		`ops_total{port="1"} 3`,
		"# TYPE queue_depth gauge",
		`queue_depth{port="1"} 1.5`,
		"# TYPE lat_ns summary",
		`lat_ns{vc="0",quantile="0.5"}`,
		`lat_ns{vc="0",quantile="0.999"}`,
		`lat_ns_count{vc="0"} 100`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

// TestServe spins the HTTP endpoint and checks /metrics, /metrics.json
// and pprof respond.
func TestServe(t *testing.T) {
	r := NewRegistry()
	r.RegisterCollector(func(e *Emitter) {
		e.Counter("served_total", "", 5)
		e.Gauge("served_depth", "", 2)
	})
	h := r.NewHistogram("served_lat_ns", "")
	h.Record(1000)
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}

	if out := get("/metrics"); !strings.Contains(out, "served_total 5") {
		t.Errorf("/metrics missing counter:\n%s", out)
	}
	var parsed []map[string]any
	if err := json.Unmarshal([]byte(get("/metrics.json")), &parsed); err != nil {
		t.Fatalf("metrics.json does not parse: %v", err)
	}
	kinds := map[string]string{}
	for _, m := range parsed {
		name, _ := m["name"].(string)
		kinds[name], _ = m["kind"].(string)
		switch name {
		case "served_lat_ns":
			if m["count"].(float64) != 1 {
				t.Errorf("json histogram count %v", m["count"])
			}
		case "served_total":
			if m["value"].(float64) != 5 {
				t.Errorf("json counter value %v", m["value"])
			}
		case "served_depth":
			if m["value"].(float64) != 2 {
				t.Errorf("json gauge value %v", m["value"])
			}
		}
	}
	for name, want := range map[string]string{"served_lat_ns": "histogram", "served_total": "counter", "served_depth": "gauge"} {
		if kinds[name] != want {
			t.Errorf("metrics.json %s kind = %q, want %q", name, kinds[name], want)
		}
	}
	if out := get("/debug/pprof/cmdline"); len(out) == 0 {
		t.Errorf("pprof cmdline empty")
	}
}
