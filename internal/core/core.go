// Package core assembles the full Vehicle-Key pipeline (Fig. 5): channel
// probing (package trace) → arRSSI extraction → the BiLSTM prediction +
// quantization model on Alice's side and the guard-banded multi-bit
// quantizer on Bob's → kept-index exchange → autoencoder reconciliation →
// privacy amplification into 128-bit session keys.
//
// Protocol shape per round: Bob quantizes his arRSSI sequence with the
// Jana et al. multi-bit quantizer, drops guard-band samples, and publicly
// announces which sample indices he kept (indices reveal nothing about
// values). Alice runs the prediction+quantization network over her own
// sequence and selects the predicted bit pairs at Bob's kept indices.
// Kept bits accumulate in a stream; every KeyBlockBits of aligned material
// is reconciled with the autoencoder and hashed into a 128-bit key.
//
// Since the stage refactor, System is a composition of the pluggable
// pipeline interfaces (pipeline.Predictor/Quantizer/Reconciler/
// Amplifier) rather than a hardwired chain: New builds the Vehicle-Key
// slot assignment, NewScheme (scheme.go) builds any registered scheme,
// and every System — Vehicle-Key or baseline — satisfies
// pipeline.Scheme, so the protocol, experiment, and NIST layers drive
// all of them through one code path.
package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/mathx"
	"repro/internal/memo"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/quantize"
	"repro/internal/reconcile"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Per-phase metric names, baked once so the hot path never builds label
// strings (the paper's Table III phase split).
var (
	phaseSecProbe     = obs.Labeled(obs.PipelinePhaseSeconds, "phase", obs.PhaseProbe)
	phaseSecPredict   = obs.Labeled(obs.PipelinePhaseSeconds, "phase", obs.PhasePredict)
	phaseSecQuantize  = obs.Labeled(obs.PipelinePhaseSeconds, "phase", obs.PhaseQuantize)
	phaseSecReconcile = obs.Labeled(obs.PipelinePhaseSeconds, "phase", obs.PhaseReconcile)
	phaseSecAmplify   = obs.Labeled(obs.PipelinePhaseSeconds, "phase", obs.PhaseAmplify)

	phaseBitsProbe     = obs.Labeled(obs.PipelinePhaseBits, "phase", obs.PhaseProbe)
	phaseBitsPredict   = obs.Labeled(obs.PipelinePhaseBits, "phase", obs.PhasePredict)
	phaseBitsQuantize  = obs.Labeled(obs.PipelinePhaseBits, "phase", obs.PhaseQuantize)
	phaseBitsReconcile = obs.Labeled(obs.PipelinePhaseBits, "phase", obs.PhaseReconcile)
	phaseBitsAmplify   = obs.Labeled(obs.PipelinePhaseBits, "phase", obs.PhaseAmplify)

	cacheHitPredictor  = obs.Labeled(obs.CacheHits, "cache", "predictor")
	cacheMissPredictor = obs.Labeled(obs.CacheMisses, "cache", "predictor")
)

// Config assembles the pipeline's knobs. The zero value is completed with
// the paper's defaults by Normalize.
type Config struct {
	// SeqLen is the arRSSI sequence length per probing round.
	SeqLen int
	// BitsPerSample is Bob's quantizer depth (2 in the paper: 64-bit head
	// over 32 samples).
	BitsPerSample int
	// GuardRatio is the quantizer guard band α: samples this close to a
	// level boundary (relative to level width) are dropped and excluded
	// from the key by both sides via the kept-index exchange.
	GuardRatio float64
	// PredGuardRatio is Alice's guard band in the predicted domain: she
	// applies the same guard-band rule to her *predicted* sequence ŷ that
	// Bob applies to his measurements, and both sides use the
	// intersection of kept indices. Selecting on distance-to-threshold in
	// the value domain (rather than on sigmoid confidence) keeps the kept
	// levels uniformly distributed — a confidence gate skews kept samples
	// toward extreme levels, which biases the Gray-coded second bit and
	// both inflates an eavesdropper's agreement and breaks key
	// randomness. Defaults to GuardRatio.
	PredGuardRatio float64
	// KeyBlockBits is the reconciliation unit (64: one AE block).
	KeyBlockBits int
	// Hidden is the predictor's BiLSTM width per direction.
	Hidden int
	// Theta is the joint-loss weight (paper: 0.9).
	Theta float64
	// LearnRate is the predictor's Adam rate.
	LearnRate float64
	// WeightDecay regularizes predictor training.
	WeightDecay float64
	// AE configures the reconciler (KeyBits is forced to KeyBlockBits).
	AE reconcile.AEConfig
	// AEEpochs and AESamples size reconciler training.
	AEEpochs  int
	AESamples int
}

// DefaultConfig mirrors the paper's implementation section: 32-step
// sequences, 2 bits per sample (a 64-bit quantization head), θ = 0.9,
// 64-bit reconciliation blocks. The BiLSTM width defaults to 16 (the
// paper uses 128; width is configurable and 16 already saturates
// agreement on the simulated channel — see EXPERIMENTS.md).
func DefaultConfig() Config {
	cfg := Config{}
	cfg.Normalize()
	return cfg
}

// Normalize fills unset fields with defaults.
func (c *Config) Normalize() {
	if c.SeqLen <= 0 {
		c.SeqLen = 32
	}
	if c.BitsPerSample <= 0 {
		c.BitsPerSample = 2
	}
	if c.GuardRatio == 0 {
		c.GuardRatio = 0.8
	}
	if c.PredGuardRatio == 0 {
		// Slightly wider than Bob's guard: predicted values carry model
		// uncertainty on top of measurement noise.
		c.PredGuardRatio = 0.85
	}
	if c.KeyBlockBits <= 0 {
		c.KeyBlockBits = 64
	}
	if c.Hidden <= 0 {
		c.Hidden = 16
	}
	if c.Theta <= 0 || c.Theta >= 1 {
		c.Theta = 0.9
	}
	if c.LearnRate <= 0 {
		c.LearnRate = 5e-3
	}
	if c.WeightDecay == 0 {
		c.WeightDecay = 1e-4
	}
	c.AE.KeyBits = c.KeyBlockBits
	if c.AE.CodeDim == 0 {
		c.AE.CodeDim = c.KeyBlockBits / 2
	}
	if c.AEEpochs <= 0 {
		c.AEEpochs = 10
	}
	if c.AESamples <= 0 {
		c.AESamples = 300
	}
}

// bits returns the quantization head width.
func (c Config) bits() int { return c.BitsPerSample * c.SeqLen }

func (c Config) quantConfig(guard float64) quantize.MultiBitConfig {
	return quantize.MultiBitConfig{
		BitsPerSample: c.BitsPerSample,
		GuardRatio:    guard,
		BlockSize:     c.SeqLen,
		Thresholds:    quantize.GaussianThresholds(c.BitsPerSample),
		NaturalCoding: true,
	}
}

// System is one scheme instance: the four pipeline stages composed
// behind the scheme-agnostic operations the protocol and experiment
// layers drive. New builds the Vehicle-Key slot assignment; NewScheme
// builds any registered scheme. System implements pipeline.Scheme.
type System struct {
	Cfg    Config
	Stages pipeline.Stages

	rec obs.Recorder

	// pmemo caches predictor forwards by window fingerprint. It is
	// PER-System (a clone gets a fresh, empty one): clones' weights can
	// diverge through FineTune, so sharing entries across instances
	// would poison them. Purged whenever training moves the weights.
	// nil disables memoization (baselines without an NN predictor).
	pmemo *memo.LRU[uint64, predEntry]
}

// predEntry is one memoized predictor forward. Both slices are treated
// as read-only by every consumer (Round.Select copies out of them).
type predEntry struct {
	yHat []float64
	bits []byte
}

// predMemoCap bounds the per-System forward cache; entries are a few
// hundred bytes (SeqLen floats + Bits bytes).
const predMemoCap = 512

// windowFingerprint is FNV-1a over the float bits of the window — the
// memo key for predictor forwards. A 64-bit digest makes an accidental
// collision (two distinct windows sharing a key) vanishingly rare at
// cache scale (~512 live entries).
func windowFingerprint(seq []float64) uint64 {
	const offset64 = 14695981039346656037
	const prime64 = 1099511628211
	h := uint64(offset64)
	for _, v := range seq {
		b := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h ^= uint64(byte(b >> s))
			h *= prime64
		}
	}
	return h
}

// nnPredictor is the Vehicle-Key predictor stage: the BiLSTM prediction
// + quantization network, run by Alice (or the power-rich side).
// Predict and Fit run the same batched forward kernels.
type nnPredictor struct {
	cfg nn.PredictorConfig
	net *nn.Predictor
}

func (p *nnPredictor) Name() string { return "bilstm" }

func (p *nnPredictor) Predict(aliceSeq []float64) ([]float64, []byte, error) {
	yHat, zHat := p.net.Forward(aliceSeq)
	return yHat, nn.Bits(zHat), nil
}

func (p *nnPredictor) Fit(samples []nn.TrainSample, epochs int, learnRate, weightDecay float64, src *rng.Source) []float64 {
	tr := nn.NewTrainer(p.net, learnRate, src)
	tr.Opt.WeightDecay = weightDecay
	return tr.Fit(samples, epochs)
}

// Clone deep-copies the network through an in-memory Save/Load
// round-trip; the initialization seed is irrelevant because Load
// overwrites every parameter.
func (p *nnPredictor) Clone() pipeline.Predictor {
	out := &nnPredictor{cfg: p.cfg, net: nn.NewPredictor(p.cfg, rng.New(1))}
	var buf bytes.Buffer
	if err := nn.SaveParams(&buf, p.net.Params()); err != nil {
		panic("core: predictor clone save: " + err.Error())
	}
	if err := nn.LoadParams(&buf, out.net.Params()); err != nil {
		panic("core: predictor clone load: " + err.Error())
	}
	return out
}

func (p *nnPredictor) Save(w io.Writer) error { return nn.SaveParams(w, p.net.Params()) }

// Load restores weights saved by Save.
func (p *nnPredictor) Load(r io.Reader) error { return nn.LoadParams(r, p.net.Params()) }

// New builds an untrained Vehicle-Key system: BiLSTM predictor,
// guard-banded multi-bit quantizer, Bloom+autoencoder reconciler,
// SHA-based amplification.
func New(cfg Config, src *rng.Source) *System {
	cfg.Normalize()
	pcfg := nn.PredictorConfig{SeqLen: cfg.SeqLen, Hidden: cfg.Hidden, Bits: cfg.bits(), Theta: cfg.Theta}
	pred := &nnPredictor{cfg: pcfg, net: nn.NewPredictor(pcfg, src.Derive("predictor"))}
	ae := reconcile.NewAE(cfg.AE, src.Derive("ae"))
	return newSystem(cfg, pipeline.Stages{
		Scheme:        DefaultScheme,
		Predictor:     pred,
		Quantizer:     pipeline.NewMultiBit(cfg.quantConfig(cfg.GuardRatio), cfg.quantConfig(cfg.PredGuardRatio)),
		Reconciler:    pipeline.NewAEStage(ae, cfg.AE, cfg.AEEpochs, cfg.AESamples),
		Amplifier:     pipeline.NewSHAAmplifier(),
		IndexExchange: true,
	})
}

// newSystem wraps a stage assignment. Only the BiLSTM predictor is
// worth memoizing: baseline predictors are cheap table lookups.
func newSystem(cfg Config, st pipeline.Stages) *System {
	s := &System{Cfg: cfg, Stages: st, rec: obs.Nop}
	if _, ok := st.Predictor.(*nnPredictor); ok {
		s.pmemo = memo.NewLRU[uint64, predEntry](predMemoCap)
	}
	return s
}

// predictorNet exposes the concrete BiLSTM for same-package diagnostics
// and tests; it is nil for schemes without a network predictor.
func (s *System) predictorNet() *nn.Predictor {
	if p, ok := s.Stages.Predictor.(*nnPredictor); ok {
		return p.net
	}
	return nil
}

// SetRecorder routes the pipeline's per-phase duration and bit-count
// observations into r. Call it before the system is shared across
// goroutines (protocol nodes, experiment workers); the field is read-only
// afterwards. Metrics never feed results, so recording cannot perturb
// the deterministic outputs.
func (s *System) SetRecorder(r obs.Recorder) { s.rec = obs.OrNop(r) }

// recorder tolerates zero-value Systems built without New.
func (s *System) recorder() obs.Recorder {
	if s.rec == nil {
		return obs.Nop
	}
	return s.rec
}

// SchemeName identifies the registered scheme this system composes.
func (s *System) SchemeName() string {
	if s.Stages.Scheme == "" {
		return DefaultScheme
	}
	return s.Stages.Scheme
}

// BlockBits is the reconciliation unit in key bits.
func (s *System) BlockBits() int { return s.Stages.Reconciler.BlockBits() }

// SampleBits is the quantizer depth in bits per kept sample.
func (s *System) SampleBits() int { return s.Stages.Quantizer.BitsPerSample() }

// Clone returns an independent deep copy: predictor and reconciler
// state duplicated (equivalent to a Save/Load round-trip into a fresh
// same-config System), stateless stages shared, the recorder inherited.
func (s *System) Clone() *System {
	out := &System{Cfg: s.Cfg, Stages: s.Stages, rec: s.rec}
	out.Stages.Predictor = s.Stages.Predictor.Clone()
	out.Stages.Reconciler = s.Stages.Reconciler.Clone()
	if s.pmemo != nil {
		// Fresh, empty memo: the clone's weights may diverge (FineTune),
		// so it must never serve the source's cached forwards.
		out.pmemo = memo.NewLRU[uint64, predEntry](predMemoCap)
	}
	return out
}

// BobQuantize runs Bob's side: the scheme's measurement-rule quantizer
// over his measured (normalized) sequence. It returns his key bits and
// the kept sample indices he announces publicly.
func (s *System) BobQuantize(bobSeq []float64) (bits []byte, kept []int, err error) {
	started := time.Now()
	bits, kept, err = s.Stages.Quantizer.Quantize(bobSeq)
	if err != nil {
		return nil, nil, fmt.Errorf("core: Bob quantization: %w", err)
	}
	s.observePhase(phaseSecQuantize, phaseBitsQuantize, started, len(bits))
	return bits, kept, nil
}

// observePhase records one pipeline phase's wall time since started and
// its yield in bits.
func (s *System) observePhase(sec, bits string, started time.Time, n int) {
	rec := s.recorder()
	rec.Observe(sec, time.Since(started).Seconds())
	rec.Observe(bits, float64(n))
}

// timedPredict runs the predictor stage under the forward latency
// histogram. It is the single point every prediction funnels through,
// memoized or not.
func (s *System) timedPredict(aliceSeq []float64) ([]float64, []byte, error) {
	started := time.Now()
	yHat, all, err := s.Stages.Predictor.Predict(aliceSeq)
	s.recorder().Observe(obs.NNForwardSeconds, time.Since(started).Seconds())
	return yHat, all, err
}

// predict serves the predictor forward for aliceSeq, consulting the
// per-System memo when one exists. Returned slices are the cache's and
// must be treated as read-only; every current consumer only reads or
// copies out of them (pipeline.NewRound included).
func (s *System) predict(aliceSeq []float64) ([]float64, []byte, error) {
	if s.pmemo == nil {
		return s.timedPredict(aliceSeq)
	}
	key := windowFingerprint(aliceSeq)
	rec := s.recorder()
	if e, ok := s.pmemo.Get(key); ok {
		rec.Add(cacheHitPredictor, 1)
		return e.yHat, e.bits, nil
	}
	rec.Add(cacheMissPredictor, 1)
	yHat, all, err := s.timedPredict(aliceSeq)
	if err == nil {
		s.pmemo.Put(key, predEntry{yHat: yHat, bits: all})
	}
	return yHat, all, err
}

// AlicePrecompute runs Alice's predictor and prediction-side guard rule
// over her measured sequence, independent of anything Bob announces.
// The returned Round answers Bob's announcement (possibly several
// times, under retransmission) with a cheap set intersection.
func (s *System) AlicePrecompute(aliceSeq []float64) (pipeline.Round, error) {
	started := time.Now()
	yHat, all, err := s.predict(aliceSeq)
	if err != nil {
		return nil, fmt.Errorf("core: Alice prediction: %w", err)
	}
	_, mine, err := s.Stages.Quantizer.QuantizePredicted(yHat)
	if err != nil {
		return nil, fmt.Errorf("core: Alice quantization: %w", err)
	}
	s.observePhase(phaseSecPredict, phaseBitsPredict, started, len(all))
	return pipeline.NewRound(all, mine, s.SampleBits()), nil
}

// AliceSelect runs Alice's full round: the predictor, then the
// prediction-side guard rule, restricted to Bob's announced kept
// indices. It returns her bits and the final index list she announces
// back to Bob.
func (s *System) AliceSelect(aliceSeq []float64, bobKept []int) (bits []byte, kept []int) {
	r, err := s.AlicePrecompute(aliceSeq)
	if err != nil {
		return nil, nil
	}
	bits, kept, ok := r.Select(bobKept)
	if !ok {
		return nil, nil
	}
	return bits, kept
}

// BobEncode derives the public reconciliation code for one of Bob's key
// blocks; keyImage is the MAC-keying image the caller must wipe.
func (s *System) BobEncode(block, salt []byte) (code []float64, keyImage []byte, err error) {
	started := time.Now()
	if code, keyImage, err = s.Stages.Reconciler.BobEncode(block, salt); err == nil {
		s.observePhase(phaseSecReconcile, phaseBitsReconcile, started, len(block))
	}
	return code, keyImage, err
}

// AliceCorrect reconciles Alice's block against Bob's public code;
// keyImage is the MAC-verification image the caller must wipe.
func (s *System) AliceCorrect(block []byte, code []float64, salt []byte) (final, keyImage []byte, err error) {
	started := time.Now()
	if final, keyImage, err = s.Stages.Reconciler.AliceCorrect(block, code, salt); err == nil {
		s.observePhase(phaseSecReconcile, phaseBitsReconcile, started, len(block))
	}
	return final, keyImage, err
}

// reconcileBlock runs the simulated two-sided reconciliation of one
// block (KeyStream's stand-in for a BobEncode/AliceCorrect exchange).
func (s *System) reconcileBlock(aliceBits, bobBits, salt []byte) (reconcile.Outcome, error) {
	started := time.Now()
	out, err := s.Stages.Reconciler.Reconcile(aliceBits, bobBits, salt)
	if err == nil {
		s.observePhase(phaseSecReconcile, phaseBitsReconcile, started, len(bobBits))
	}
	return out, err
}

// Amplify runs the scheme's privacy amplification on one side's block.
func (s *System) Amplify(bits, salt []byte) ([]byte, error) {
	started := time.Now()
	key, err := s.Stages.Amplifier.Amplify(bits, salt)
	if err == nil {
		s.observePhase(phaseSecAmplify, phaseBitsAmplify, started, len(key)*8)
	}
	return key, err
}

var _ pipeline.Scheme = (*System)(nil)

// TrainSamples converts a dataset into predictor training samples: input
// Alice's sequence; targets Bob's sequence plus Bob's guard-banded bits,
// with the BCE loss masked to the kept positions.
func (s *System) TrainSamples(ds *trace.Dataset) ([]nn.TrainSample, error) {
	// Stride by the scheme quantizer's depth, not Cfg.BitsPerSample: the
	// two differ for baseline quantizers (han: 3, lora-key/gao: 1), and
	// striding by the config depth would interleave wrong bit groups.
	b := s.SampleBits()
	width := b * s.Cfg.SeqLen
	out := make([]nn.TrainSample, 0, len(ds.Samples))
	for _, smp := range ds.Samples {
		resBits, resKept, err := s.Stages.Quantizer.Quantize(smp.Bob)
		if err != nil {
			return nil, err
		}
		bits := make([]byte, width)
		mask := make([]bool, width)
		for i, idx := range resKept {
			copy(bits[idx*b:(idx+1)*b], resBits[i*b:(i+1)*b])
			for k := 0; k < b; k++ {
				mask[idx*b+k] = true
			}
		}
		out = append(out, nn.TrainSample{Alice: smp.Alice, Bob: smp.Bob, Bits: bits, Mask: mask})
	}
	return out, nil
}

// Train fits the trainable stages on the dataset for the given epochs,
// returning the predictor's per-epoch losses. Stages without trainable
// parameters (every baseline) are left untouched.
func (s *System) Train(ds *trace.Dataset, epochs int, src *rng.Source) ([]float64, error) {
	tp, trainPred := s.Stages.Predictor.(pipeline.TrainablePredictor)
	tr, trainRec := s.Stages.Reconciler.(pipeline.TrainableReconciler)
	if !trainPred && !trainRec {
		// Nothing to fit (every baseline): skip sample assembly rather
		// than build predictor targets no stage will consume.
		return nil, nil
	}
	samples, err := s.TrainSamples(ds)
	if err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, errors.New("core: empty training set")
	}
	// Both streams are derived in the order the two fits once ran one
	// after the other, so each draws exactly what it did. The reconciler
	// fit is a pure function of its config and stream (it never reads
	// the dataset), so it runs on its own goroutine beside the
	// predictor fit.
	var fitSrc *rng.Source
	if trainPred {
		fitSrc = src.Derive("fit")
	}
	aeDone := make(chan struct{})
	if trainRec {
		go func(aeSrc *rng.Source) {
			defer close(aeDone)
			tr.Fit(aeSrc)
		}(src.Derive("ae-fit"))
	} else {
		close(aeDone)
	}
	var losses []float64
	if trainPred {
		losses = tp.Fit(samples, epochs, s.Cfg.LearnRate, s.Cfg.WeightDecay, fitSrc)
		// Cached forwards describe the pre-training weights.
		s.pmemo.Purge()
	}
	<-aeDone
	return losses, nil
}

// FineTune continues predictor training on new-environment data without
// reinitializing, the transfer-learning mode of Fig. 14.
func (s *System) FineTune(ds *trace.Dataset, epochs int, src *rng.Source) ([]float64, error) {
	samples, err := s.TrainSamples(ds)
	if err != nil {
		return nil, err
	}
	tp, ok := s.Stages.Predictor.(pipeline.TrainablePredictor)
	if !ok {
		return nil, errors.New("core: scheme has no trainable predictor")
	}
	losses := tp.Fit(samples, epochs, s.Cfg.LearnRate, s.Cfg.WeightDecay, src.Derive("finetune"))
	s.pmemo.Purge()
	return losses, nil
}

// KeyResult reports one completed key block.
type KeyResult struct {
	PreAgreement  float64 // bit agreement before reconciliation
	PostAgreement float64 // bit agreement after reconciliation
	Exact         bool    // keys identical after reconciliation
	AliceKey      []byte  // Alice's 128-bit key after privacy amplification
	BobKey        []byte  // Bob's 128-bit key
	BitsGenerated int
	LeakedBits    int     // public bits revealed during reconciliation
	Duration      float64 // probing time consumed by this block
}

// KeyStream accumulates kept key material across probing rounds and emits
// a KeyResult whenever a full reconciliation block is available.
type KeyStream struct {
	sys      *System
	salt     []byte
	aliceBuf []byte
	bobBuf   []byte
	duration float64
	emitted  int
}

// NewKeyStream starts a stream for the session identified by salt.
func (s *System) NewKeyStream(salt []byte) *KeyStream {
	return &KeyStream{sys: s, salt: append([]byte{}, salt...)}
}

// Push feeds one probing round's aligned sample through quantization and
// selection, appending the kept material. It returns a KeyResult for each
// completed block (usually zero or one).
//
// Protocol messages modeled: Bob announces his guard-band kept indices;
// Alice replies with the confidence-gated subset; both extract bits at
// the final indices. Indices reveal nothing about measurement values.
func (ks *KeyStream) Push(smp trace.Sample) ([]KeyResult, error) {
	bobBits, bobKept, err := ks.sys.BobQuantize(smp.Bob)
	if err != nil {
		return nil, err
	}
	aliceBits, finalKept := ks.sys.AliceSelect(smp.Alice, bobKept)
	bobFinal := pipeline.SelectAt(bobBits, bobKept, finalKept, ks.sys.SampleBits())
	ks.bobBuf = append(ks.bobBuf, bobFinal...)
	ks.aliceBuf = append(ks.aliceBuf, aliceBits...)
	ks.duration += smp.Duration
	// The probe phase's cost is the channel probing time the sample
	// consumed (modeled, not wall-clock); its yield is the kept bits.
	rec := ks.sys.recorder()
	rec.Observe(phaseSecProbe, smp.Duration)
	rec.Observe(phaseBitsProbe, float64(len(bobFinal)))

	var out []KeyResult
	block := ks.sys.BlockBits()
	for len(ks.bobBuf) >= block {
		res, err := ks.emit(ks.aliceBuf[:block], ks.bobBuf[:block])
		if err != nil {
			return nil, err
		}
		ks.aliceBuf = ks.aliceBuf[block:]
		ks.bobBuf = ks.bobBuf[block:]
		out = append(out, res)
	}
	return out, nil
}

func (ks *KeyStream) emit(aliceBits, bobBits []byte) (KeyResult, error) {
	ks.emitted++
	salt := append(append([]byte{}, ks.salt...), byte(ks.emitted), byte(ks.emitted>>8))
	duration := ks.duration
	ks.duration = 0
	out, err := ks.sys.reconcileBlock(aliceBits, bobBits, salt)
	if err != nil {
		return KeyResult{}, fmt.Errorf("core: reconcile: %w", err)
	}
	res := blockResult(aliceBits, bobBits, out)
	res.Duration = duration
	if res.AliceKey, err = ks.sys.Amplify(out.AliceKey, salt); err != nil {
		return KeyResult{}, err
	}
	if res.BobKey, err = ks.sys.Amplify(out.BobKey, salt); err != nil {
		return KeyResult{}, err
	}
	return res, nil
}

// blockResult records one reconciled block's agreement and leakage, the
// per-block record both evaluators fold with Aggregate.
func blockResult(aliceBits, bobBits []byte, out reconcile.Outcome) KeyResult {
	return KeyResult{
		PreAgreement:  mathx.Agreement(aliceBits, bobBits),
		PostAgreement: out.Agreement(),
		Exact:         out.Exact(),
		BitsGenerated: len(bobBits),
		LeakedBits:    out.LeakedKeyBits,
	}
}

// Save serializes the trained stages (predictor, then reconciler; only
// stages with persistent state write anything).
func (s *System) Save(w io.Writer) error {
	for _, st := range []any{s.Stages.Predictor, s.Stages.Reconciler} {
		if p, ok := st.(pipeline.Persistent); ok {
			if err := p.Save(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// Load restores a system saved by Save into a same-config System.
func (s *System) Load(r io.Reader) error {
	for _, st := range []any{s.Stages.Predictor, s.Stages.Reconciler} {
		if p, ok := st.(pipeline.Persistent); ok {
			if err := p.Load(r); err != nil {
				return err
			}
		}
	}
	// Restored weights invalidate any forwards cached under the old ones.
	s.pmemo.Purge()
	return nil
}
