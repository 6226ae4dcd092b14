// Package obs is the repository's zero-dependency metrics subsystem:
// counters, gauges and histograms grouped into per-Registry labeled families
// and rendered in the Prometheus text exposition format (WritePrometheus,
// Handler). It implements no part of the paper itself — it is the
// reproduction-infrastructure observability layer (DESIGN.md S25) behind
// the bfdnd_* families of the service daemon (internal/server) and the sweep
// engine's recorder (internal/sweep).
//
// The design goals, in order:
//
//   - Per-registry state. Nothing is process-global — every Server, engine
//     run, or test creates its own Registry, so parallel instances never
//     share a counter (the failure mode of the expvar vars this package
//     replaced).
//
//   - Atomic-add hot paths. Counter.Add, FloatCounter.AddDuration and
//     Histogram.ObserveDuration are a handful of atomic adds with no locks, so
//     instruments can sit on simulation hot paths (the sweep engine observes
//     one histogram sample per point).
//
//   - Mergeability. Histograms with identical bucket layouts merge in O(1)
//     per bucket (Merge), so an engine can record into a run-local histogram
//     at full speed and fold it into a long-lived registry once, atomically,
//     when the run completes.
//
// The zero value of Counter, FloatCounter and Gauge is ready to use
// unregistered; histograms need bucket bounds (NewHistogram). Registering an
// instrument (Registry.Counter and friends) names it for exposition.
package obs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer, safe for concurrent use.
// The zero value is valid.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reports the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Merge adds src's total into c.
func (c *Counter) Merge(src *Counter) { c.v.Add(src.v.Load()) }

// FloatCounter is a monotonically increasing float accumulated in 1-nanounit
// (1e-9) fixed point, so AddDuration is a single atomic add rather than a
// CAS loop. It holds sums up to ~9.2e9 (≈292 years of seconds), ample for
// duration totals. The zero value is valid.
type FloatCounter struct {
	nanos atomic.Int64
}

// AddDuration adds d as seconds, exactly (no float rounding); a negative d
// is ignored: counters only go up.
func (c *FloatCounter) AddDuration(d time.Duration) {
	if d <= 0 {
		return
	}
	c.nanos.Add(int64(d))
}

// Value reports the accumulated total.
func (c *FloatCounter) Value() float64 { return float64(c.nanos.Load()) / 1e9 }

// Merge adds src's total into c, exactly (no float round-trip).
func (c *FloatCounter) Merge(src *FloatCounter) { c.nanos.Add(src.nanos.Load()) }

// Gauge is a float that can go up and down. The zero value is valid and
// reads 0.
type Gauge struct {
	bits atomic.Uint64
}

// Add adds delta (negative to decrease) with a CAS loop; gauges are for
// low-frequency state (inflight jobs), not hot-path accumulation.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Inc adds 1; Dec subtracts 1.
func (g *Gauge) Inc() { g.Add(1) }
func (g *Gauge) Dec() { g.Add(-1) }

// Value reports the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. ObserveDuration is
// wait-free: one atomic add on the bucket counter and one on the
// fixed-point sum.
// Bounds are inclusive upper bounds in increasing order; a final +Inf bucket
// is implicit. All observations are expected to be ≥ 0 (durations, sizes);
// the sum is kept in 1e-9 fixed point like FloatCounter.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Int64    // 1e-9 fixed point

	// ex holds per-bucket trace exemplars; nil until EnableExemplars
	// (exemplar.go), so histograms without them pay nothing.
	ex []atomic.Pointer[Exemplar]
}

// inf is the overflow bucket's upper bound for exemplar reporting.
var inf = math.Inf(1)

// NewHistogram builds an unregistered histogram with the given bucket upper
// bounds, which must be finite and strictly increasing. It panics on invalid
// bounds (programmer error, like an invalid metric name).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("obs: bucket bound %d is not finite", i))
		}
		if i > 0 && b <= bounds[i-1] {
			panic(fmt.Sprintf("obs: bucket bounds not strictly increasing at %d", i))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// ObserveDuration records d as seconds with an exact fixed-point sum.
func (h *Histogram) ObserveDuration(d time.Duration) {
	v := d.Seconds()
	// Linear scan: bucket layouts are small (≤ ~20) and the loop is
	// branch-predictable, beating binary search at this size.
	i := len(h.bounds)
	for j, b := range h.bounds {
		if v <= b {
			i = j
			break
		}
	}
	h.counts[i].Add(1)
	if d > 0 {
		h.sum.Add(int64(d))
	}
}

// Count reports the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum reports the sum of all observed values.
func (h *Histogram) Sum() float64 { return float64(h.sum.Load()) / 1e9 }

// Merge atomically folds src's observations into h. The two histograms must
// share an identical bucket layout. Merging while src is still being
// observed is safe but may miss in-flight samples; merge after the producer
// finishes for exact totals.
func (h *Histogram) Merge(src *Histogram) error {
	if len(h.bounds) != len(src.bounds) {
		return fmt.Errorf("obs: merge: %d buckets vs %d", len(h.bounds), len(src.bounds))
	}
	for i := range h.bounds {
		if h.bounds[i] != src.bounds[i] {
			return fmt.Errorf("obs: merge: bucket bound %d differs (%g vs %g)", i, h.bounds[i], src.bounds[i])
		}
	}
	for i := range src.counts {
		if n := src.counts[i].Load(); n > 0 {
			h.counts[i].Add(n)
		}
	}
	if s := src.sum.Load(); s != 0 {
		h.sum.Add(s)
	}
	h.mergeExemplars(src)
	return nil
}

// snapshot returns the per-bucket counts (non-cumulative) and the totals.
func (h *Histogram) snapshot() (counts []uint64, count uint64, sum float64) {
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		count += counts[i]
	}
	return counts, count, h.Sum()
}

// DefDurationBuckets is the shared latency bucket layout: 100µs to ~26s in
// ×2 steps, covering both sub-millisecond sweep points and multi-second
// request deadlines with 19 buckets.
func DefDurationBuckets() []float64 {
	return ExponentialBuckets(100e-6, 2, 19)
}

// ExponentialBuckets returns n bucket bounds starting at start and
// multiplying by factor: start, start·factor, …  It panics when start ≤ 0,
// factor ≤ 1 or n < 1.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExponentialBuckets needs start > 0, factor > 1, n ≥ 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// kind discriminates family types for exposition.
type kind int

const (
	kindCounter kind = iota + 1
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

// family is one named metric with zero or more label dimensions; children
// are the per-label-value instruments.
type family struct {
	name   string
	help   string
	kind   kind
	labels []string
	bounds []float64 // histograms only

	mu       sync.RWMutex
	children map[string]any // joined label values → instrument
}

// keySep joins label values into a map key; 0xff cannot appear in valid
// UTF-8 label values at a position that would collide two distinct tuples.
const keySep = "\xff"

// child returns the instrument for the given label values, creating it on
// first use. make builds a new instrument of the family's type.
func (f *family) child(values []string, make func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s: got %d label values, want %d", f.name, len(values), len(f.labels)))
	}
	key := ""
	for i, v := range values {
		if i > 0 {
			key += keySep
		}
		key += v
	}
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c = make()
	f.children[key] = c
	return c
}

// Registry is an isolated set of metric families. Create one per server (or
// per engine run) with NewRegistry; nothing in this package is global.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []string // registration order, for stable exposition
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register validates and installs a family; it panics on duplicate or
// malformed names (programmer errors, caught by any test that builds the
// registry — the expvar.NewInt idiom).
func (r *Registry) register(name, help string, k kind, labels []string, bounds []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validLabel(l) {
			panic(fmt.Sprintf("obs: %s: invalid label name %q", name, l))
		}
	}
	f := &family{name: name, help: help, kind: k, labels: labels,
		bounds: bounds, children: make(map[string]any)}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// Names returns the registered family names in registration order — the
// code-side half of the metrics-catalog drift check (internal/opscheck):
// every name here must appear in OPERATIONS.md and vice versa.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// Counter registers and returns an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, nil, nil)
	return f.child(nil, func() any { return new(Counter) }).(*Counter)
}

// FloatCounter registers and returns an unlabeled float counter.
func (r *Registry) FloatCounter(name, help string) *FloatCounter {
	f := r.register(name, help, kindCounter, nil, nil)
	return f.child(nil, func() any { return new(FloatCounter) }).(*FloatCounter)
}

// Gauge registers and returns an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, kindGauge, nil, nil)
	return f.child(nil, func() any { return new(Gauge) }).(*Gauge)
}

// Histogram registers and returns an unlabeled histogram with the given
// bucket bounds (see NewHistogram for the bound rules).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := NewHistogram(bounds) // validates bounds
	f := r.register(name, help, kindHistogram, nil, h.bounds)
	return f.child(nil, func() any { return h }).(*Histogram)
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: %s: CounterVec needs at least one label", name))
	}
	return &CounterVec{f: r.register(name, help, kindCounter, labels, nil)}
}

// HistogramVec registers a labeled histogram family; every child shares the
// bucket bounds.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: %s: HistogramVec needs at least one label", name))
	}
	b := NewHistogram(bounds).bounds // validates bounds
	return &HistogramVec{f: r.register(name, help, kindHistogram, labels, b)}
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (one per label, in
// registration order), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() any { return new(Counter) }).(*Counter)
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values, func() any { return NewHistogram(v.f.bounds) }).(*Histogram)
}

// validName reports whether s matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

// validLabel reports whether s matches [a-zA-Z_][a-zA-Z0-9_]*.
func validLabel(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}
