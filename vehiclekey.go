// Package vehiclekey is a reproduction of "Vehicle-Key: A Secret Key
// Establishment Scheme for LoRa-enabled IoV Communications" (Yang et al.,
// ICDCS 2022) as a self-contained Go library.
//
// It provides:
//
//   - a full simulation substrate standing in for the paper's hardware
//     testbed: a vehicular radio channel (path loss, correlated
//     shadowing, Jakes Doppler fading), the LoRa SX127x PHY timing model,
//     and register-RSSI measurement;
//   - the Vehicle-Key pipeline itself: arRSSI feature extraction, the
//     BiLSTM prediction+quantization network, guard-banded multi-bit
//     quantization, autoencoder reconciliation behind a salted Bloom
//     filter, and SHA-based privacy amplification;
//   - an interactive protocol that runs the scheme between two endpoints
//     over in-memory or UDP transports, producing confirmed AES-128 keys;
//     the transport is treated as unreliable (LoRa): messages are
//     retransmitted with exponential backoff, duplicates and reordering
//     are tolerated, and a deterministic fault-injecting transport
//     wrapper exists for testing links at chosen loss rates;
//   - the three baselines the paper compares against, the NIST SP 800-22
//     randomness battery, and runners that regenerate every figure and
//     table of the paper's evaluation (see internal/exp and cmd/vkbench).
//
// Quickstart:
//
//	session, err := vehiclekey.SetupWith(vehiclekey.Options{})
//	...
//	keys, metrics, err := session.GenerateKeys(8)
package vehiclekey

import (
	"fmt"
	"io"
	"log"

	// Blank import: registers the lora-key/han/gao scheme builders so
	// Options.Scheme / WithScheme can name them.
	_ "repro/internal/baselines"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/lora"
	"repro/internal/nist"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Environment selects the propagation preset.
type Environment = channel.Environment

// LinkType distinguishes V2V from V2I links.
type LinkType = channel.LinkType

// Propagation and link-type constants.
const (
	Urban = channel.Urban
	Rural = channel.Rural
	V2V   = channel.V2V
	V2I   = channel.V2I
)

// Metrics re-exports the pipeline quality metrics.
type Metrics = core.Metrics

// Key is one established 128-bit session key with its round diagnostics.
type Key struct {
	Bits      []byte // 16-byte AES-128 key (identical on both sides when Agreed)
	Agreed    bool   // both sides ended with the same key
	Agreement float64
}

// Options configures SetupWith. The zero value reproduces the paper's default
// configuration in the V2I-urban scenario.
type Options struct {
	Environment Environment // Urban (default) or Rural
	Link        LinkType    // V2I (default) or V2V
	SpeedKmh    float64     // vehicle speed, default 50
	Seed        int64       // deterministic seed, default 1

	TrainingWindows int // probing windows used for training, default 500
	TrainingEpochs  int // predictor epochs, default 30

	// Scheme selects the registered key-generation scheme driving the
	// session's pipeline stages: "vehicle-key" (default when empty) or
	// any name in Schemes() ("lora-key", "han", "gao"). Every scheme runs
	// through the same quantize→reconcile→amplify path; only the stage
	// implementations differ.
	Scheme string

	System core.Config // advanced pipeline knobs; zero values take defaults

	// Medium, when non-nil, attaches a shared LoRa medium to the session:
	// the config is normalized and validated during SetupWith and the built
	// Medium is available from Session.Medium, with its MAC counters
	// routed into Recorder. Nil (the default) keeps the session
	// point-to-point, as in the paper. See WithMedium.
	Medium *MediumConfig

	// Recorder receives the session's metrics (nil: no recording). See
	// WithRecorder; recording never influences results.
	Recorder Recorder
	// Logger receives coarse progress lines (nil: silent).
	Logger *log.Logger
	// Observer receives lifecycle callbacks (nil: none).
	Observer SessionObserver
}

// Session is a trained Vehicle-Key deployment bound to one simulated
// link: it can generate keys, evaluate agreement metrics, play the
// attacker, and export its trained models.
type Session struct {
	opts   Options
	sys    *core.System
	test   *trace.Dataset
	src    *rng.Source
	cursor int
	rec    obs.Recorder
	medium *Medium
}

// SetupWith builds the simulated link, collects training data, and
// trains the prediction and reconciliation models. Functional options
// apply over the base struct, in order: SetupWith(Options{}, WithSeed(7))
// is equivalent to SetupWith(Options{Seed: 7}).
func SetupWith(opts Options, extra ...Option) (*Session, error) {
	for _, o := range extra {
		if o != nil {
			o(&opts)
		}
	}
	if opts.Environment == 0 {
		opts.Environment = Urban
	}
	if opts.Link == 0 {
		opts.Link = V2I
	}
	if opts.SpeedKmh == 0 {
		opts.SpeedKmh = 50
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.TrainingWindows == 0 {
		opts.TrainingWindows = 500
	}
	if opts.TrainingEpochs == 0 {
		opts.TrainingEpochs = 30
	}
	opts.System.Normalize()

	// The shared-medium config, like the scheme name below, must fail
	// before the expensive builds. The medium itself is cheap to create:
	// its virtual clock only advances while endpoints are in flight.
	var medium *Medium
	if opts.Medium != nil {
		mc := *opts.Medium
		if mc.Seed == 0 {
			mc.Seed = opts.Seed // inherit the session seed unless pinned
		}
		if mc.Recorder == nil {
			mc.Recorder = opts.Recorder
		}
		m, err := lora.NewMedium(mc) // normalizes and validates
		if err != nil {
			return nil, fmt.Errorf("vehiclekey: medium: %w", err)
		}
		medium = m
		norm := m.Config()
		opts.Medium = &norm
	}

	// A bad scheme name must fail before the dataset and model builds,
	// not after: the registry lookup is free, the builds are not. The
	// authoritative (randomness-consuming) construction still happens in
	// NewScheme below, in its original derivation order.
	if !core.SchemeRegistered(opts.Scheme) {
		return nil, fmt.Errorf("vehiclekey: %w", &core.ErrUnknownScheme{Name: opts.Scheme, Known: core.SchemeNames()})
	}

	sc := trace.NewScenario(opts.Environment, opts.Link)
	sc.SpeedAKmh = opts.SpeedKmh
	ds, err := trace.Build(sc, opts.Seed, opts.TrainingWindows, opts.System.SeqLen, trace.DefaultExtract())
	if err != nil {
		return nil, fmt.Errorf("vehiclekey: %w", err)
	}
	src := rng.New(opts.Seed + 1)
	train, _, test := ds.Split(0.75, 0.05, src.Derive("split"))
	sys, err := core.NewScheme(opts.Scheme, opts.System, src.Derive("sys"))
	if err != nil {
		return nil, fmt.Errorf("vehiclekey: %w", err)
	}
	rec := obs.OrNop(opts.Recorder)
	sys.SetRecorder(rec)
	if _, err := sys.Train(train, opts.TrainingEpochs, src.Derive("train")); err != nil {
		return nil, fmt.Errorf("vehiclekey: train: %w", err)
	}
	if opts.Logger != nil {
		opts.Logger.Printf("vehiclekey: trained (seed=%d epochs=%d windows=%d)",
			opts.Seed, opts.TrainingEpochs, opts.TrainingWindows)
	}
	if opts.Observer != nil {
		opts.Observer.SessionTrained(opts.Seed, opts.TrainingEpochs)
	}
	return &Session{opts: opts, sys: sys, test: test, src: src, rec: rec, medium: medium}, nil
}

// System exposes the trained pipeline for advanced use (protocol nodes,
// profiling).
func (s *Session) System() *core.System { return s.sys }

// Medium returns the shared LoRa medium built from Options.Medium, or
// nil for a point-to-point session. Its Link / Listen / Dial endpoints
// carry protocol traffic through the contended channel model, and its
// Stats expose the MAC counters (also recorded into the session's
// Recorder).
func (s *Session) Medium() *Medium { return s.medium }

// Schemes lists the registered scheme names accepted by Options.Scheme
// and WithScheme, sorted.
func Schemes() []string { return core.SchemeNames() }

// Windows returns up to n held-out aligned measurement windows
// (Alice side, Bob side) for driving the interactive protocol.
func (s *Session) Windows(n int) (alice, bob [][]float64) {
	for i := 0; i < n && i < len(s.test.Samples); i++ {
		alice = append(alice, s.test.Samples[i].Alice)
		bob = append(bob, s.test.Samples[i].Bob)
	}
	return alice, bob
}

// GenerateKeys drives probing rounds until n keys are produced (or the
// held-out channel data runs out) and returns them with the aggregate
// metrics.
func (s *Session) GenerateKeys(n int) ([]Key, Metrics, error) {
	ks := s.sys.NewKeyStream([]byte(fmt.Sprintf("session-%d", s.opts.Seed)))
	var keys []Key
	var results []core.KeyResult
	var probed float64
	for s.cursor < len(s.test.Samples) && len(keys) < n {
		smp := s.test.Samples[s.cursor]
		s.cursor++
		probed += smp.Duration
		rs, err := ks.Push(smp)
		if err != nil {
			return nil, Metrics{}, fmt.Errorf("vehiclekey: %w", err)
		}
		for _, r := range rs {
			k := Key{Bits: r.BobKey, Agreed: r.Exact, Agreement: r.PostAgreement}
			keys = append(keys, k)
			results = append(results, r)
			s.rec.Add(obs.SessionKeys, 1)
			if k.Agreed {
				s.rec.Add(obs.SessionKeysAgreed, 1)
			}
			if s.opts.Observer != nil {
				s.opts.Observer.KeyGenerated(k)
			}
		}
	}
	if s.opts.Logger != nil {
		s.opts.Logger.Printf("vehiclekey: generated %d key(s)", len(keys))
	}
	return keys, core.Aggregate(results, probed), nil
}

// Evaluate measures agreement metrics over the full held-out set.
func (s *Session) Evaluate() (Metrics, error) {
	return s.sys.Evaluate(s.test, []byte("evaluate"))
}

// EvaluateAttack measures an attacker's agreement: imitate=true for an
// Eve tailing the vehicle, false for one parked near the infrastructure.
func (s *Session) EvaluateAttack(imitate bool) (Metrics, error) {
	return s.sys.EvaluateEve(s.test, imitate, []byte("attack"))
}

// RandomnessReport runs the NIST battery over a stream of generated keys.
type RandomnessReport struct {
	Results []nist.Result
	Bits    int
}

// CheckRandomness generates keys until it has enough material and runs
// the Table II battery.
func (s *Session) CheckRandomness(minBits int) (RandomnessReport, error) {
	if minBits < nist.MinBits {
		minBits = 4096
	}
	ks := s.sys.NewKeyStream([]byte("nist"))
	var stream []byte
	for _, smp := range s.test.Samples {
		rs, err := ks.Push(smp)
		if err != nil {
			return RandomnessReport{}, err
		}
		for _, r := range rs {
			stream = append(stream, unpackKey(r.BobKey)...)
		}
		if len(stream) >= minBits {
			break
		}
	}
	results, err := nist.Battery(stream)
	if err != nil {
		return RandomnessReport{}, fmt.Errorf("vehiclekey: %w", err)
	}
	return RandomnessReport{Results: results, Bits: len(stream)}, nil
}

func unpackKey(key []byte) []byte {
	out := make([]byte, 0, len(key)*8)
	for _, b := range key {
		for i := 7; i >= 0; i-- {
			out = append(out, b>>uint(i)&1)
		}
	}
	return out
}

// SaveModel writes the trained predictor and reconciler weights.
func (s *Session) SaveModel(w io.Writer) error { return s.sys.Save(w) }

// LoadModel restores weights previously saved with SaveModel into this
// session's (same-configuration) models.
func (s *Session) LoadModel(r io.Reader) error { return s.sys.Load(r) }
