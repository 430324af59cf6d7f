package vehiclekey

import (
	"repro/internal/core"
	"repro/internal/lora"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// Recorder is the observability hook every layer records into: counters,
// gauges and histogram observations, addressed by metric name. The default everywhere is a no-op; set Options.Recorder to a
// *MetricsRegistry (or any implementation) to collect.
type Recorder = obs.Recorder

// MetricsRegistry is the concrete Recorder: lock-cheap instruments,
// exportable as a JSON snapshot (WriteJSON) or in the Prometheus text
// format (WritePrometheus).
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
// Options.Medium.
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
