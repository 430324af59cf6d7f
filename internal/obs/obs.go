// Package obs is the repository's observability layer: a small,
// stdlib-only set of live instruments — atomic counters, gauges and
// fixed-bucket histograms — behind one Recorder interface that the hot layers (protocol, core
// pipeline, transport, exp engine) accept from their callers.
//
// The design contract, enforced by the vklint obsnop analyzer, is that
// instrumented packages never construct a concrete recorder themselves:
// they default to Nop (every method a no-op on a zero-size struct, so
// the uninstrumented path costs one interface call and nothing else)
// and record into whatever the caller wired in. Binaries that want live
// numbers build a *Registry, pass it down, and export it as an
// expvar-style JSON snapshot, a Prometheus text dump, or over HTTP next
// to net/http/pprof (see export.go and pprof.go).
//
// Metric identity is a flat name, optionally carrying Prometheus-style
// labels baked into the string ("vk_pipeline_phase_seconds{phase=\"quantize\"}",
// built once with Labeled, never per call). names.go holds the
// repository's metric taxonomy.
package obs

// Recorder is the instrumentation sink threaded through the hot layers.
// Implementations must be safe for concurrent use; calls on the hot path
// must stay cheap (an atomic add, or nothing at all for Nop).
type Recorder interface {
	// Add increments the named monotonic counter.
	Add(name string, delta int64)
	// Set updates the named gauge to an instantaneous value.
	Set(name string, value float64)
	// Observe records one sample into the named histogram.
	Observe(name string, value float64)
}

// NopRecorder is the zero-cost default: every method does nothing. It is
// what instrumented code runs against when no recorder is wired in, so
// the uninstrumented path stays within benchmark noise of no
// instrumentation at all.
type NopRecorder struct{}

// Add implements Recorder as a no-op.
func (NopRecorder) Add(string, int64) {}

// Set implements Recorder as a no-op.
func (NopRecorder) Set(string, float64) {}

// Observe implements Recorder as a no-op.
func (NopRecorder) Observe(string, float64) {}

// Nop is the shared no-op recorder instance.
var Nop Recorder = NopRecorder{}

// OrNop normalizes an optional recorder: nil becomes Nop, so call sites
// never branch on presence.
func OrNop(r Recorder) Recorder {
	if r == nil {
		return Nop
	}
	return r
}
