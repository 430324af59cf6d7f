package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous float value with atomic load/store.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram: bucket i counts samples with
// value <= Bounds[i]; the final implicit bucket is +Inf. All updates are
// atomic — Observe takes no lock.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, the last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, updated by CAS
}

// newHistogram builds a histogram over the given ascending upper bounds.
func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observed samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// DefBuckets are the default histogram bounds: durations in seconds from
// one microsecond to over a minute, roughly geometric. Instruments that
// measure something other than time should be declared with their own
// bounds (DeclareHistogram).
var DefBuckets = []float64{
	1e-6, 5e-6, 25e-6, 1e-4, 5e-4, 2.5e-3, 1e-2, 5e-2, 0.25, 1, 5, 25, 100,
}

// BitBuckets suit bit-count histograms (pipeline phase output sizes).
var BitBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// SessionBuckets suit whole-session latency histograms: finer than
// DefBuckets between 1ms and 30s, where tail quantiles (p99) of the
// serving layer actually live.
var SessionBuckets = []float64{
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Registry is the concrete Recorder: a concurrent name → instrument
// map. Instrument lookups take a read lock; the
// instruments themselves are lock-free atomics, so sustained recording
// on a known name contends only on the RWMutex read path.
type Registry struct {
	start time.Time

	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	help     map[string]string // keyed by family (label-stripped) name
	bounds   map[string][]float64
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		start:    time.Now(),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		help:     make(map[string]string),
		bounds:   make(map[string][]float64),
	}
}

// DeclareCounter pre-registers a counter and its help text, so exports
// contain the family even before the first increment.
func (r *Registry) DeclareCounter(name, help string) {
	r.mu.Lock()
	if _, ok := r.counters[name]; !ok {
		r.counters[name] = &Counter{}
	}
	r.help[Family(name)] = help
	r.mu.Unlock()
}

// DeclareGauge pre-registers a gauge and its help text.
func (r *Registry) DeclareGauge(name, help string) {
	r.mu.Lock()
	if _, ok := r.gauges[name]; !ok {
		r.gauges[name] = &Gauge{}
	}
	r.help[Family(name)] = help
	r.mu.Unlock()
}

// DeclareHistogram pre-registers a histogram with explicit bucket bounds.
// Later Observe calls on the same name use these bounds; undeclared
// histograms fall back to DefBuckets. The bounds also apply to any name
// of the same family declared afterwards.
func (r *Registry) DeclareHistogram(name, help string, bucketBounds []float64) {
	if len(bucketBounds) == 0 {
		bucketBounds = DefBuckets
	}
	r.mu.Lock()
	if _, ok := r.hists[name]; !ok {
		r.hists[name] = newHistogram(bucketBounds)
	}
	fam := Family(name)
	r.help[fam] = help
	r.bounds[fam] = append([]float64(nil), bucketBounds...)
	r.mu.Unlock()
}

// Add implements Recorder.
func (r *Registry) Add(name string, delta int64) {
	r.counter(name).Add(delta)
}

// Set implements Recorder.
func (r *Registry) Set(name string, value float64) {
	r.gauge(name).Set(value)
}

// Observe implements Recorder.
func (r *Registry) Observe(name string, value float64) {
	r.histogram(name).Observe(value)
}

// Uptime reports the monotonic time since the registry was built.
func (r *Registry) Uptime() time.Duration { return time.Since(r.start) }

func (r *Registry) counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

func (r *Registry) gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

func (r *Registry) histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	// A labeled sibling inherits its family's declared bounds.
	bounds := r.bounds[Family(name)]
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	h = newHistogram(bounds)
	r.hists[name] = h
	return h
}
