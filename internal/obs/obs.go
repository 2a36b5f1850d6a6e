// Package obs is the engine's observability kernel: a dependency-free
// metrics registry (atomic counters, gauges, log-bucketed latency
// histograms, labeled families) plus a ring-buffered event tracer.
//
// Design constraints, in order:
//
//   - Allocation-free on the hot path. Recording into a counter or
//     histogram is one or two atomic adds — no maps, no interface
//     boxing, no locks, no branch. Callers resolve their handles once,
//     at package init, and hold them forever.
//   - One exposition format. Registries render Prometheus text
//     exposition (WritePrometheus / TextSnapshot); the gateway's
//     /metrics endpoint, the binary protocol's OpMetrics reply and the
//     wtquery REPL all serve the same bytes.
//
// Metric names are validated at registration against MetricName
// (^wt_[a-z0-9_]+$) so ad-hoc names cannot drift in: a bad name is a
// programmer error and panics immediately, and a lint test walks every
// registered name to keep the invariant honest in CI.
package obs

import (
	"fmt"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// MetricName is the shape every registered metric name must have: the
// wt_ prefix namespaces the engine in shared Prometheus setups, and the
// lowercase-snake body keeps dashboards greppable.
var MetricName = regexp.MustCompile(`^wt_[a-z0-9_]+$`)

// defaultRegistry is the process-wide registry every package-level
// metric set registers into.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry. The store and server
// packages register their metric sets here, and every exposition
// surface (gateway /metrics, OpMetrics, wtquery) renders it.
func Default() *Registry { return defaultRegistry }

// Registry holds named metrics and renders them. All methods are safe
// for concurrent use; registration is idempotent (asking for an
// existing name of the same kind returns the existing handle, so any
// number of stores or servers in one process share one set of series).
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
}

// metric is anything the registry can render.
type metric interface {
	metricName() string
	metricKind() string // "counter" | "gauge" | "histogram"
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{metrics: make(map[string]metric)} }

// register validates the name and installs m, or returns the existing
// metric under that name. A name collision across kinds is a
// programmer error and panics.
func (r *Registry) register(name string, m metric) metric {
	if !MetricName.MatchString(name) {
		panic(fmt.Sprintf("obs: metric name %q does not match %s", name, MetricName))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.metrics[name]; ok {
		if old.metricKind() != m.metricKind() {
			panic(fmt.Sprintf("obs: metric %q re-registered as a %s (was a %s)", name, m.metricKind(), old.metricKind()))
		}
		return old
	}
	r.metrics[name] = m
	return m
}

// sorted returns the metrics in name order for deterministic renders.
func (r *Registry) sorted() []metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	ms := make([]metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].metricName() < ms[j].metricName() })
	return ms
}

// Counter is a monotonically increasing count.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// NewCounter registers (or returns the existing) counter under name.
func (r *Registry) NewCounter(name, help string) *Counter {
	return r.register(name, &Counter{name: name, help: help}).(*Counter)
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) metricName() string { return c.name }
func (c *Counter) metricKind() string { return "counter" }

// gaugeFunc is a gauge evaluated at render time — for values that
// already live somewhere else (queue lengths, mmap residency) where a
// write-through gauge would just be a second, staler copy.
type gaugeFunc struct {
	name, help string
	fn         func() int64
}

// NewGaugeFunc registers a render-time gauge. Re-registering an
// existing name keeps the first callback (the value's owner), so
// package-level registrations that sum over live instances stay
// single-sourced.
func (r *Registry) NewGaugeFunc(name, help string, fn func() int64) {
	r.register(name, &gaugeFunc{name: name, help: help, fn: fn})
}

func (g *gaugeFunc) metricName() string { return g.name }
func (g *gaugeFunc) metricKind() string { return "gauge" }

// HistogramVec is a family of histograms sharing a name, split by one
// label — per-op latency series.
type HistogramVec struct {
	name, help, label string
	scale             float64

	mu       sync.Mutex
	children map[string]*Histogram
}

// NewHistogramVec registers (or returns the existing) labeled histogram
// family under name; scale is the Histogram exposition scale (see
// NewHistogram).
func (r *Registry) NewHistogramVec(name, help, label string, scale float64) *HistogramVec {
	return r.register(name, &HistogramVec{name: name, help: help, label: label,
		scale: scale, children: make(map[string]*Histogram)}).(*HistogramVec)
}

// With returns the child histogram for one label value, creating it on
// first use. Resolve once and hold the handle — With takes a lock.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok := v.children[value]; ok {
		return h
	}
	h := &Histogram{name: v.name, scale: v.scale}
	v.children[value] = h
	return h
}

func (v *HistogramVec) metricName() string { return v.name }
func (v *HistogramVec) metricKind() string { return "histogram" }

// labelValues returns the child label values, sorted.
func (v *HistogramVec) labelValues() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	vals := make([]string, 0, len(v.children))
	for lv := range v.children {
		vals = append(vals, lv)
	}
	sort.Strings(vals)
	return vals
}

// now is the time source, swappable in tests.
var now = time.Now
