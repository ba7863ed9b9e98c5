// Package obs is the repository's observability core: a metrics
// registry of atomic counters, gauges and internal/hist-backed
// histograms with a Prometheus text-format exporter (prom.go), plus a
// lock-free fixed-size flight recorder of recent structured events
// (ring.go). It is stdlib-only and self-contained, so every layer of
// the stack — the tsserve front ends, the tsload driver, the daemons —
// can publish into one registry without new dependencies.
//
// The design rule is the repository's hot-path discipline: anything a
// request path touches is a single atomic operation with zero
// allocations — Counter.Inc/Add is one atomic add, Histogram.Record is
// the hist package's fixed-array atomic recording, Ring.Record is a
// slot claim plus a handful of atomic stores. Everything that costs
// more (registration, exposition, snapshots) happens off the operation
// path, on whatever goroutine scrapes or dumps.
//
// Two kinds of metric feed the registry:
//
//   - owned state: Counter, Gauge and Histogram are allocated by the
//     registry and written by the instrumented code. They are the
//     single bookkeeping location for what they count — a JSON metrics
//     view and the Prometheus exposition both read the same atomics.
//   - derived state: GaugeFunc and the labeled CounterVecFunc and
//     GaugeVecFunc sample a value that already lives elsewhere (an
//     Object's call counter, a session table's size) at scrape time,
//     so instrumentation never duplicates a source of truth that
//     another layer owns.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"

	"tsspace/internal/hist"
)

// kind discriminates the exposition type of one registered metric.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing metric: one atomic word.
// Inc/Add are safe for concurrent use and allocation-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
//
//tslint:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Counters only go up; Add with a huge value that wraps is
// the caller's bug, not checked here (the hot path is one atomic add).
//
//tslint:hotpath
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down: one atomic word.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
//
//tslint:hotpath
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (negative to decrease).
//
//tslint:hotpath
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a registry-owned latency histogram: internal/hist's
// lock-free log-bucketed recording, exposed to Prometheus over a fixed
// ladder of cumulative le bounds.
type Histogram struct {
	h      *hist.H
	bounds []int64 // ascending, exposition-time only
}

// Record adds one observation (nanoseconds by convention; the unit is
// whatever the metric name declares). Safe for concurrent use,
// allocation-free.
//
//tslint:hotpath
func (h *Histogram) Record(v int64) { h.h.Record(v) }

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.h.Count() }

// Summarize digests the histogram into the repository's fixed
// percentile shape (the JSON /metrics view).
func (h *Histogram) Summarize() hist.Summary { return h.h.Summarize() }

// DefaultLatencyBounds is the le ladder (nanoseconds) histograms expose
// by default: roughly logarithmic from 1µs to 10s, matched to the
// repository's measured range (tens of ns in process, µs over wire v3,
// tens of µs over HTTP, ms under queueing).
var DefaultLatencyBounds = []int64{
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
	100_000, 250_000, 500_000,
	1_000_000, 2_500_000, 5_000_000, 10_000_000, 25_000_000, 50_000_000,
	100_000_000, 250_000_000, 500_000_000,
	1_000_000_000, 2_500_000_000, 10_000_000_000,
}

// Sample is one labeled observation of a vector family: the value the
// family's single label takes, and the sampled value for it. The slice
// a vec function returns is rendered in order, so callers control
// sample ordering (sort for a deterministic exposition).
type Sample struct {
	Label string
	Value float64
}

// metric is one registered family: exactly one of the value fields is
// set, matching kind (fn for derived gauges, vec for derived labeled
// families).
type metric struct {
	name string
	help string
	kind kind

	counter *Counter
	gauge   *Gauge
	histo   *Histogram
	fn      func() float64

	// Labeled derived family: label is the single label name, vec is
	// sampled at exposition time and returns one Sample per label value.
	label string
	vec   func() []Sample
}

// Registry holds registered metrics and renders them. Registration is
// construction-time work behind a mutex; the returned metric handles
// are what the instrumented code touches, lock-free.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	names   map[string]struct{}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]struct{})}
}

// register validates and stores m. Registration failures are programmer
// errors (bad name, duplicate family) and panic: they are reachable
// only from construction code, never from a request.
func (r *Registry) register(m *metric) {
	if !ValidMetricName(m.name) {
		panic("obs: invalid metric name " + m.name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.names[m.name]; dup {
		panic("obs: duplicate metric " + m.name)
	}
	r.names[m.name] = struct{}{}
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns an owned counter. By Prometheus
// convention the name should end in _total.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, help: help, kind: kindCounter, counter: c})
	return c
}

// Gauge registers and returns an owned gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&metric{name: name, help: help, kind: kindGauge, gauge: g})
	return g
}

// GaugeFunc registers a derived gauge sampled at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, kind: kindGauge, fn: fn})
}

// CounterVecFunc registers a derived labeled counter family: one label
// name, and a function sampled at exposition time returning one Sample
// per label value (e.g. one per namespace). The sampled values read a
// counter that already lives elsewhere — the point is to not duplicate
// it — and must be monotonically non-decreasing per label; label
// values that disappear (a deprovisioned namespace) simply stop being
// emitted. The label name must be a valid metric-name-shaped
// identifier; label values are escaped at exposition time.
func (r *Registry) CounterVecFunc(name, help, label string, vec func() []Sample) {
	if !ValidMetricName(label) {
		panic("obs: invalid label name " + label)
	}
	r.register(&metric{name: name, help: help, kind: kindCounter, label: label, vec: vec})
}

// GaugeVecFunc registers a derived labeled gauge family sampled at
// exposition time, one Sample per label value.
func (r *Registry) GaugeVecFunc(name, help, label string, vec func() []Sample) {
	if !ValidMetricName(label) {
		panic("obs: invalid label name " + label)
	}
	r.register(&metric{name: name, help: help, kind: kindGauge, label: label, vec: vec})
}

// Histogram registers and returns an owned histogram with the given
// cumulative le bounds (nil means DefaultLatencyBounds). Bounds are
// copied and sorted; they shape the exposition only — recording
// precision is the hist package's own bucket geometry.
func (r *Registry) Histogram(name, help string, bounds []int64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBounds
	}
	b := append([]int64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	h := &Histogram{h: hist.New(), bounds: b}
	r.register(&metric{name: name, help: help, kind: kindHistogram, histo: h})
	return h
}

// snapshot returns the registered metrics sorted by name, for a
// deterministic exposition order.
func (r *Registry) snapshot() []*metric {
	r.mu.Lock()
	out := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// ValidMetricName reports whether name matches the Prometheus metric
// name charset [a-zA-Z_:][a-zA-Z0-9_:]*.
func ValidMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
