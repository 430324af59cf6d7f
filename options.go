package vehiclekey

import (
	"log"

	"repro/internal/core"
	"repro/internal/lora"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// Recorder is the observability hook every layer records into: counters,
// gauges, histogram observations, and trace events, addressed by metric
// name. The default everywhere is a no-op; pass a *MetricsRegistry (or
// any implementation) via WithRecorder to collect.
type Recorder = obs.Recorder

// MetricsRegistry is the concrete Recorder: lock-cheap instruments plus
// a bounded event trace, exportable as a JSON snapshot (WriteJSON) or in
// the Prometheus text format (WritePrometheus).
type MetricsRegistry = obs.Registry

// NewMetricsRegistry builds a registry with the full Vehicle-Key metric
// schema pre-declared, so exports always contain every family — protocol
// ARQ counters, per-phase pipeline histograms, transport fault counts —
// even before (or without) traffic.
func NewMetricsRegistry() *MetricsRegistry {
	r := obs.NewRegistry()
	obs.DeclareStandard(r)
	return r
}

// SystemConfig re-exports the pipeline configuration (Options.System).
type SystemConfig = core.Config

// MediumConfig re-exports the shared-medium MAC configuration
// (Options.Medium): channel count, capture margin, CAD and backoff
// behaviour, per-device duty-cycle budget, hop dwell, and the virtual
// clock mode. A zero value normalizes to the documented defaults; see
// WithMedium.
type MediumConfig = lora.MediumConfig

// MediumStats re-exports the shared medium's MAC counters (frames,
// collisions, CAD drops, airtime), as returned by Medium.Stats.
type MediumStats = lora.Stats

// Medium re-exports the shared LoRa medium itself: a session configured
// with Options.Medium exposes one via Session.Medium, and its Link /
// Listen / Dial endpoints carry transport connections through the
// contended channel model.
type Medium = lora.Medium

// Sentinel errors re-exported from the protocol layer. A failed round's
// KeyOutcome.Err wraps one of these in a *RoundError; branch with
// errors.Is / errors.As.
var (
	// ErrConfirmFailed: the peers reconciled to different bits, or the
	// confirmation tag was tampered with.
	ErrConfirmFailed = protocol.ErrConfirmFailed
	// ErrPeerTimeout: the peer stopped responding and retries ran out.
	ErrPeerTimeout = protocol.ErrPeerTimeout
)

// RoundError locates a protocol round failure (round index plus the
// exchange phase that died), wrapping one of the sentinels above.
type RoundError = protocol.RoundError

// ErrUnknownScheme reports an Options.Scheme name no registered scheme
// answers to; its Known field lists the valid names.
type ErrUnknownScheme = core.ErrUnknownScheme

// SessionObserver receives session lifecycle callbacks. Callbacks run
// synchronously on the calling goroutine; implementations must be quick
// or hand off.
type SessionObserver interface {
	// SessionTrained fires once SetupWith's model training completes.
	SessionTrained(seed int64, epochs int)
	// KeyGenerated fires for every key GenerateKeys produces, confirmed
	// or not.
	KeyGenerated(key Key)
}

// ObserverFuncs adapts plain functions to SessionObserver; nil fields
// are skipped.
type ObserverFuncs struct {
	OnTrained func(seed int64, epochs int)
	OnKey     func(key Key)
}

// SessionTrained implements SessionObserver.
func (o ObserverFuncs) SessionTrained(seed int64, epochs int) {
	if o.OnTrained != nil {
		o.OnTrained(seed, epochs)
	}
}

// KeyGenerated implements SessionObserver.
func (o ObserverFuncs) KeyGenerated(key Key) {
	if o.OnKey != nil {
		o.OnKey(key)
	}
}

// Option mutates an Options value; pass options to SetupWith. The struct
// path (a filled Options) and the functional path are equivalent — an
// Option is sugar over the corresponding field.
type Option func(*Options)

// WithEnvironment selects the propagation preset (Urban or Rural).
func WithEnvironment(e Environment) Option {
	return func(o *Options) { o.Environment = e }
}

// WithLink selects the link type (V2I or V2V).
func WithLink(l LinkType) Option {
	return func(o *Options) { o.Link = l }
}

// WithSpeed sets the vehicle speed in km/h.
func WithSpeed(kmh float64) Option {
	return func(o *Options) { o.SpeedKmh = kmh }
}

// WithSeed sets the deterministic seed.
func WithSeed(seed int64) Option {
	return func(o *Options) { o.Seed = seed }
}

// WithTrainingWindows sets the number of probing windows used for
// training.
func WithTrainingWindows(n int) Option {
	return func(o *Options) { o.TrainingWindows = n }
}

// WithTrainingEpochs sets the predictor training epochs.
func WithTrainingEpochs(n int) Option {
	return func(o *Options) { o.TrainingEpochs = n }
}

// WithSystemConfig replaces the advanced pipeline configuration.
func WithSystemConfig(cfg SystemConfig) Option {
	return func(o *Options) { o.System = cfg }
}

// WithScheme selects the key-generation scheme by registry name —
// "vehicle-key" (the default), "lora-key", "han", or "gao"; see
// Schemes(). SetupWith fails with ErrUnknownScheme for anything else.
func WithScheme(name string) Option {
	return func(o *Options) { o.Scheme = name }
}

// WithMedium attaches a shared LoRa medium to the session: cfg's
// contention parameters (channels, capture margin, CAD, duty cycle,
// dwell) flow through the same surface as WithScheme, zero
// fields take the documented defaults, the medium seed defaults to the
// session seed, and MAC counters record into the session's Recorder.
// The built medium is returned by Session.Medium.
func WithMedium(cfg MediumConfig) Option {
	return func(o *Options) { o.Medium = &cfg }
}

// WithRecorder routes the session's metrics — pipeline phase timings,
// key counters — into r. Recording is one-way: nothing read from the
// recorder influences results, so an instrumented run stays bit-identical
// to an uninstrumented one with the same seed.
func WithRecorder(r Recorder) Option {
	return func(o *Options) { o.Recorder = r }
}

// WithLogger sets a logger for coarse progress lines (training done,
// keys generated). Nil keeps the session silent.
func WithLogger(l *log.Logger) Option {
	return func(o *Options) { o.Logger = l }
}

// WithObserver registers a lifecycle callback receiver.
func WithObserver(obs SessionObserver) Option {
	return func(o *Options) { o.Observer = obs }
}
