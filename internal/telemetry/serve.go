package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"
)

// Exposition: the registry's Gather output rendered as Prometheus text
// (histograms as summaries with quantile labels) and as a JSON
// snapshot, served together with pprof from telemetry.Serve.

// quantiles reported for every histogram, in exposition order.
var expoQuantiles = []struct {
	label string
	q     float64
}{
	{"0.5", 0.50},
	{"0.9", 0.90},
	{"0.99", 0.99},
	{"0.999", 0.999},
}

// withLabel splices one more k="v" pair into a pre-rendered label set.
func withLabel(labels, k, v string) string {
	pair := k + `="` + v + `"`
	if labels == "" {
		return "{" + pair + "}"
	}
	return strings.TrimSuffix(labels, "}") + "," + pair + "}"
}

// writePrometheus renders samples in the Prometheus text exposition
// format. Counters and gauges are scalar lines; histograms render as
// summaries: quantile-labelled lines plus _sum and _count.
func writePrometheus(w io.Writer, samples []Sample) error {
	lastTyped := ""
	for i := range samples {
		s := &samples[i]
		if s.Name != lastTyped {
			typ := "gauge"
			switch s.Kind {
			case KindCounter:
				typ = "counter"
			case KindHistogram:
				typ = "summary"
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, typ); err != nil {
				return err
			}
			lastTyped = s.Name
		}
		if s.Kind != KindHistogram {
			if _, err := fmt.Fprintf(w, "%s%s %g\n", s.Name, s.Labels, s.Value); err != nil {
				return err
			}
			continue
		}
		h := s.Hist
		for _, eq := range expoQuantiles {
			if _, err := fmt.Fprintf(w, "%s%s %d\n", s.Name, withLabel(s.Labels, "quantile", eq.label), h.Quantile(eq.q)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %d\n%s_count%s %d\n", s.Name, s.Labels, h.Sum, s.Name, s.Labels, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// jsonSample is the JSON shape of one sample; histograms carry their
// summary statistics instead of raw buckets.
type jsonSample struct {
	Name   string   `json:"name"`
	Labels string   `json:"labels,omitempty"`
	Kind   string   `json:"kind"`
	Value  *float64 `json:"value,omitempty"`
	Count  *int64   `json:"count,omitempty"`
	Sum    *int64   `json:"sum,omitempty"`
	Max    *int64   `json:"max,omitempty"`
	Mean   *float64 `json:"mean,omitempty"`
	P50    *int64   `json:"p50,omitempty"`
	P90    *int64   `json:"p90,omitempty"`
	P99    *int64   `json:"p99,omitempty"`
	P999   *int64   `json:"p999,omitempty"`
}

// writeJSON renders samples as a JSON array.
func writeJSON(w io.Writer, samples []Sample) error {
	out := make([]jsonSample, 0, len(samples))
	for i := range samples {
		s := &samples[i]
		js := jsonSample{Name: s.Name, Labels: s.Labels, Kind: s.Kind.String()}
		if s.Kind == KindHistogram {
			h := s.Hist
			mean := h.mean()
			p50, p90 := h.Quantile(0.50), h.Quantile(0.90)
			p99, p999 := h.Quantile(0.99), h.Quantile(0.999)
			js.Count, js.Sum, js.Max, js.Mean = &h.Count, &h.Sum, &h.Max, &mean
			js.P50, js.P90, js.P99, js.P999 = &p50, &p90, &p99, &p999
		} else {
			v := s.Value
			js.Value = &v
		}
		out = append(out, js)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Server is a running telemetry endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Addr reports the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.srv.Close() }

// handler builds the telemetry HTTP mux for a registry: /metrics
// (Prometheus text), /metrics.json (JSON snapshot), and /debug/pprof.
func handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = writePrometheus(w, r.Gather())
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = writeJSON(w, r.Gather())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve exposes a registry over HTTP on addr (":0" picks a free port)
// and returns the running server. The caller owns shutdown via Close.
func Serve(addr string, r *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: handler(r), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return &Server{ln: ln, srv: srv}, nil
}
