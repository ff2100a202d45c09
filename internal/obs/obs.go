// Package obs is the run-observability substrate shared by every backend:
// the canonical JSON run report (report.go) that makes simulated and live
// executions comparable field-by-field and is a run's one record of what it
// did, a task-lifecycle event sink threaded through the planner's Driver
// and both execution backends, and a lightweight metrics registry
// (counters, gauges, histograms with label support). /metrics renders the
// report in the Prometheus text format (prom.go), as report_* gauges
// (ReportPoints). No run writes the registry: it stays because perf/'s
// probes do (ROADMAP 1(b)).
//
// The package sits below internal/plan in the dependency order: plan's
// Backend interface embeds Sink, so the Driver reports every task
// transition, stage window and placement to whichever backend runs the job.
// Production shuffle systems treat this telemetry as the substrate for
// adaptation and resilience; here it is also the evidence layer for the
// paper's observability claims (per-worker timelines, cross-DC traffic
// matrices).
package obs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"wanshuffle/internal/stats"
)

// Labels attach dimensions to a metric. Identical name+labels return the
// same metric instance.
type Labels map[string]string

// canonical renders labels in sorted k=v order: Snapshot's sort key. It
// does not escape, so two label sets can share it ({a="1,b=2"} and
// {a="1",b="2"}); the registry keys metrics by appendMetricKey instead.
func (l Labels) canonical() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += k + "=" + l[k] + ","
	}
	return s
}

// appendMetricKey appends the registry key of name{labels} to dst: the name
// and each sorted label pair as Go-quoted strings, back to back. A quoted
// string ends at its first unescaped quote, so a key decodes one way only
// and two different metrics never share one.
func appendMetricKey(dst []byte, name string, l Labels) []byte {
	dst = strconv.AppendQuote(dst, name)
	keys := make([]string, 0, 8) // on the stack for up to 8 labels
	for k := range l {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		dst = strconv.AppendQuote(dst, k)
		dst = strconv.AppendQuote(dst, l[k])
	}
	return dst
}

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative n is ignored).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can move in both directions.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set stores the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram is a fixed-bucket distribution metric wrapping stats.Histogram
// behind a lock.
type Histogram struct {
	mu  sync.Mutex
	h   *stats.Histogram
	sum float64
}

// Observe records one sample.
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.h.Add(x)
	h.sum += x
	h.mu.Unlock()
}

// snapshot returns the bucket counts, total count, and sum.
func (h *Histogram) snapshot() ([]stats.Bucket, int, float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Buckets(), h.h.N(), h.sum
}

// metricKind discriminates registry entries.
type metricKind int

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("metricKind(%d)", int(k))
	}
}

type metricEntry struct {
	key    string // appendMetricKey(nil, name, labels)
	name   string
	labels Labels
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds named metrics. The zero value is not usable; create one
// with NewRegistry. A nil *Registry hands out nil metrics whose methods
// no-op, so instrumented code needs no enabled checks (the trace.Recorder
// idiom).
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metricEntry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]*metricEntry{}}
}

func (r *Registry) entry(name string, labels Labels, kind metricKind, edges []float64) *metricEntry {
	// The data plane looks a metric up on every increment: with the key
	// built on the stack, finding an existing one allocates nothing.
	var buf [128]byte
	key := appendMetricKey(buf[:0], name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.metrics[string(key)]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v, was %v", name, kind, e.kind))
		}
		return e
	}
	cp := make(Labels, len(labels))
	for k, v := range labels {
		cp[k] = v
	}
	e := &metricEntry{key: string(key), name: name, labels: cp, kind: kind}
	switch kind {
	case kindCounter:
		e.c = &Counter{}
	case kindGauge:
		e.g = &Gauge{}
	case kindHistogram:
		e.h = &Histogram{h: stats.NewHistogram(edges)}
	}
	r.metrics[e.key] = e
	return e
}

// Counter returns (registering on first use) the counter name{labels}.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	return r.entry(name, labels, kindCounter, nil).c
}

// Gauge returns (registering on first use) the gauge name{labels}.
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	if r == nil {
		return nil
	}
	return r.entry(name, labels, kindGauge, nil).g
}

// Histogram returns (registering on first use) the fixed-bucket histogram
// name{labels}. The edges only apply on first registration.
func (r *Registry) Histogram(name string, edges []float64, labels Labels) *Histogram {
	if r == nil {
		return nil
	}
	return r.entry(name, labels, kindHistogram, edges).h
}

// HistBucket is one exported histogram bucket: the count of samples with
// value <= Le. The overflow bucket's edge renders as "+Inf" (Prometheus
// style) because JSON has no infinity literal.
type HistBucket struct {
	Le    string `json:"le"`
	Count int    `json:"count"`
}

func formatEdge(le float64) string {
	if math.IsInf(le, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(le, 'g', -1, 64)
}

// MetricPoint is one metric's exported state.
type MetricPoint struct {
	Name    string            `json:"name"`
	Type    string            `json:"type"`
	Labels  map[string]string `json:"labels,omitempty"`
	Value   float64           `json:"value"`
	Count   int               `json:"count,omitempty"`
	Sum     float64           `json:"sum,omitempty"`
	Buckets []HistBucket      `json:"buckets,omitempty"`
}

// Snapshot exports every metric, sorted by name then canonical labels
// (then metric key, for label sets whose canonical forms collide), so
// output is deterministic.
func (r *Registry) Snapshot() []MetricPoint {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	entries := make([]*metricEntry, 0, len(r.metrics))
	for _, e := range r.metrics {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].name != entries[j].name {
			return entries[i].name < entries[j].name
		}
		if ci, cj := entries[i].labels.canonical(), entries[j].labels.canonical(); ci != cj {
			return ci < cj
		}
		return entries[i].key < entries[j].key
	})
	out := make([]MetricPoint, 0, len(entries))
	for _, e := range entries {
		p := MetricPoint{Name: e.name, Type: e.kind.String()}
		if len(e.labels) > 0 {
			p.Labels = e.labels
		}
		switch e.kind {
		case kindCounter:
			p.Value = float64(e.c.Value())
		case kindGauge:
			p.Value = e.g.Value()
		case kindHistogram:
			buckets, n, sum := e.h.snapshot()
			p.Count = n
			p.Sum = sum
			for _, b := range buckets {
				p.Buckets = append(p.Buckets, HistBucket{Le: formatEdge(b.Le), Count: b.Count})
			}
		}
		out = append(out, p)
	}
	return out
}
