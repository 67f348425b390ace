// Package obs is the runtime observability layer: lock-cheap counters,
// gauges, and fixed-bucket histograms with atomic hot paths, a bounded
// ring-buffer event tracer, and Prometheus-text + JSON exposition served
// over an opt-in HTTP endpoint (see http.go).
//
// The package is stdlib-only and designed around two contracts:
//
//  1. Nil is off. Every instrument method is a no-op on a nil receiver,
//     and every constructor propagates nil (NewSEObserver(nil) == nil),
//     so instrumented code needs exactly one nil check — or none at all
//     when it simply calls through — and costs nothing when
//     observability is disabled. ci.sh enforces this with a benchmark
//     gate (BenchmarkSESolveObs: attached vs detached within 3%).
//
//  2. Hot paths are atomic. Counter.Add, Gauge.Set, and
//     Histogram.Observe are single atomic operations (plus a bounded
//     CAS loop for float accumulation); the registry mutex is only
//     taken at registration and exposition time.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Inc adds one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can go up and down.
type Gauge struct {
	name, help string
	bits       atomic.Uint64
}

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta via a CAS loop. No-op on a nil gauge.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram with Prometheus "le"
// (less-or-equal) bucket semantics: an observation lands in the first
// bucket whose upper bound is >= the value; values above the last bound
// land in the implicit +Inf bucket.
type Histogram struct {
	name, help string
	bounds     []float64      // ascending upper bounds; +Inf implicit
	counts     []atomic.Int64 // len(bounds)+1
	count      atomic.Int64
	sumBits    atomic.Uint64
}

// Observe records v. No-op on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bound >= v (le semantics); falls through to +Inf bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Buckets returns the upper bounds and their non-cumulative counts; the
// final count is the +Inf bucket.
func (h *Histogram) Buckets() ([]float64, []int64) {
	if h == nil {
		return nil, nil
	}
	counts := make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return h.bounds, counts
}

// LinearBuckets returns n ascending bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	if n < 1 {
		n = 1
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ExponentialBuckets returns n ascending bounds start, start*factor, ...
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if n < 1 {
		n = 1
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Registry owns a namespace of instruments and the session tracer.
// Get-or-create registration is idempotent: the same name always returns
// the same instrument, so independent subsystems can share counters.
// Metric names may embed Prometheus labels (`name{k="v"}`); the exposition
// writer groups HELP/TYPE lines by the base name.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	debug    map[string]func() any
	tracer   *Tracer
	traceCtx *TraceContext
}

// DefaultTraceCapacity is the tracer ring's capacity in every CLI's
// registry.
const DefaultTraceCapacity = 4096

// NewRegistryWithTrace returns an empty registry whose tracer ring holds
// up to capacity events (NewTracer clamps it to at least 16 and at most
// what the ring's string ids address).
func NewRegistryWithTrace(capacity int) *Registry {
	tracer := NewTracer(capacity)
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		debug:    make(map[string]func() any),
		tracer:   tracer,
		traceCtx: NewTraceContext(tracer),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Returns nil (a valid no-op instrument) on a nil registry.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name, help: help}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. Returns nil (a valid no-op instrument) on a nil registry.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name, help: help}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given ascending bucket bounds on first use (later bounds arguments
// are ignored for an existing name). Returns nil on a nil registry.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	h := &Histogram{name: name, help: help, bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
	r.hists[name] = h
	return h
}

// Tracer returns the registry's event tracer (nil on a nil registry).
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// RegisterDebug registers a named JSON debug provider: fn's return value
// is encoded at /debug/<name> on the observability endpoint each time the
// page is fetched. Re-registering a name replaces the provider (a fresh
// SE run takes over the "convergence" page from the previous one). No-op
// on a nil registry.
func (r *Registry) RegisterDebug(name string, fn func() any) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.debug == nil {
		r.debug = make(map[string]func() any)
	}
	r.debug[name] = fn
}

// DebugProvider returns the provider registered under name, or nil.
func (r *Registry) DebugProvider(name string) func() any {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.debug[name]
}

// MetricNames lists every registered metric name (counters, gauges, and
// histograms, labels included as written) in sorted order. The metrics
// lint uses it to gate renames against the committed docs/metrics.txt
// golden list. Nil-safe.
func (r *Registry) MetricNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for k := range r.counters {
		out = append(out, k)
	}
	for k := range r.gauges {
		out = append(out, k)
	}
	for k := range r.hists {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// DebugNames lists the registered debug providers in sorted order.
func (r *Registry) DebugNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return sortedKeys(r.debug)
}

// sortedKeys snapshots a map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
