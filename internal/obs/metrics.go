package obs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metricType is the Prometheus family type.
type metricType int

const (
	counterType metricType = iota
	gaugeType
	histogramType
)

// String returns the TYPE line token.
func (t metricType) String() string {
	switch t {
	case counterType:
		return "counter"
	case gaugeType:
		return "gauge"
	default:
		return "histogram"
	}
}

// atomicFloat is a float64 updated with atomic operations (bits in a
// uint64). Add is a CAS loop; Set/Load are plain stores/loads.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Load() float64   { return math.Float64frombits(f.bits.Load()) }
func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// series holds the atomic state of one (family, label values) sample.
type series struct {
	labels []string // label values, in the family's label-name order

	val atomicFloat // counter / gauge value

	// Histogram state: one non-cumulative count per bucket plus the +Inf
	// overflow at the end; exposition re-derives the cumulative form.
	counts []atomic.Uint64
	sum    atomicFloat
}

// family is one named metric with a fixed type, help string, label names,
// and (for histograms) bucket bounds shared by every series.
type family struct {
	name   string
	help   string
	typ    metricType
	labels []string
	bounds []float64

	mu     sync.Mutex
	series map[string]*series
}

// get returns the series for the given label values, creating it on first
// use. The key is the label values joined with an unprintable separator.
func (f *family) get(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: append([]string(nil), values...)}
		if f.typ == histogramType {
			s.counts = make([]atomic.Uint64, len(f.bounds)+1)
		}
		f.series[key] = s
	}
	return s
}

// delete drops the series for the given label values (dropped tenants must
// not linger on /metrics forever).
func (f *family) delete(values []string) {
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	delete(f.series, key)
	f.mu.Unlock()
}

// snapshot returns the family's series sorted by label values, for
// deterministic exposition.
func (f *family) snapshot() []*series {
	f.mu.Lock()
	out := make([]*series, 0, len(f.series))
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, f.series[k])
	}
	f.mu.Unlock()
	return out
}

// Registry holds metric families and renders them in Prometheus text
// format. All methods are safe for concurrent use; registration of an
// already-registered name returns the existing family when the type, help,
// labels and buckets match, and panics on a mismatch (two packages fighting
// over one name is a programming error, not a runtime condition).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	gather   []func()
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// OnGather registers a hook run at the start of every exposition, before
// any family is rendered. Gauges whose value is derived from live state
// (queue depths, view counts) are refreshed here instead of on every state
// change.
func (r *Registry) OnGather(f func()) {
	r.mu.Lock()
	r.gather = append(r.gather, f)
	r.mu.Unlock()
}

// register installs (or re-resolves) a family.
func (r *Registry) register(name, help string, typ metricType, labels []string, bounds []float64) *family {
	if name == "" {
		panic("obs: metric name must be non-empty")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || f.help != help || !slices.Equal(f.labels, labels) || !slices.Equal(f.bounds, bounds) {
			panic(fmt.Sprintf("obs: metric %s re-registered with a different type, help, labels or buckets", name))
		}
		return f
	}
	f := &family{
		name:   name,
		help:   help,
		typ:    typ,
		labels: append([]string(nil), labels...),
		bounds: append([]float64(nil), bounds...),
		series: make(map[string]*series),
	}
	r.families[name] = f
	return f
}

// A Counter is a monotonically non-decreasing sample. Adding a negative
// value panics: a decreasing counter corrupts every rate() computed over it.
type Counter struct {
	s *series
}

// Add increments the counter by v (v must be non-negative).
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("obs: counter decreased")
	}
	c.s.val.Add(v)
}

// Inc adds one.
func (c *Counter) Inc() { c.s.val.Add(1) }

// Value reads the current total — for derived instruments and tests, not
// for engine decisions.
func (c *Counter) Value() float64 { return c.s.val.Load() }

// A Gauge is a sample that can move both ways.
type Gauge struct {
	s *series
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.s.val.Store(v) }

// A Histogram counts observations into fixed buckets. Buckets are chosen at
// registration (ExpBuckets for the usual exponential ladder) and shared by
// every series of the family.
type Histogram struct {
	s      *series
	bounds []float64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// The first bucket whose upper bound contains v; everything past the
	// last bound lands in the +Inf overflow slot.
	i := sort.SearchFloat64s(h.bounds, v)
	h.s.counts[i].Add(1)
	h.s.sum.Add(v)
}

// ObserveDuration records a duration in seconds — the unit every *_seconds
// family uses.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ExpBuckets builds n exponentially growing bucket bounds starting at start
// and multiplying by factor: the fixed-bucket ladder the histogram families
// use. start must be positive and factor > 1.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	b := start
	for i := range out {
		out[i] = b
		b *= factor
	}
	return out
}

// Counter registers (or re-resolves) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, counterType, nil, nil)
	return &Counter{s: f.get(nil)}
}

// Gauge registers an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, gaugeType, nil, nil)
	return &Gauge{s: f.get(nil)}
}

// Histogram registers an unlabeled histogram over the given bucket bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.register(name, help, histogramType, nil, bounds)
	return &Histogram{s: f.get(nil), bounds: f.bounds}
}

// CounterVec is a counter family with labels; With resolves one series.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, counterType, labels, nil)}
}

// With returns the counter for the given label values (created on first
// use).
func (v *CounterVec) With(values ...string) *Counter { return &Counter{s: v.f.get(values)} }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, gaugeType, labels, nil)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return &Gauge{s: v.f.get(values)} }

// Delete drops the series for the given label values.
func (v *GaugeVec) Delete(values ...string) { v.f.delete(values) }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec registers a labeled histogram family over shared bounds.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, histogramType, labels, bounds)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return &Histogram{s: v.f.get(values), bounds: v.f.bounds}
}

// Delete drops the series for the given label values.
func (v *HistogramVec) Delete(values ...string) { v.f.delete(values) }
