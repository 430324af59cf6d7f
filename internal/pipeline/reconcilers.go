package pipeline

import (
	"fmt"
	"io"

	"repro/internal/reconcile"
	"repro/internal/rng"
	"repro/internal/secure"
)

// Aliases so stage consumers configure reconcilers without importing
// the reconcile package (the stageiface analyzer forbids that import in
// protocol and exp).
type (
	// Outcome is one reconciliation run's result and cost accounting.
	Outcome = reconcile.Outcome
	// AEConfig sizes the autoencoder reconciler.
	AEConfig = reconcile.AEConfig
	// CSConfig parameterizes the compressed-sensing reconciler.
	CSConfig = reconcile.CSConfig
	// CascadeConfig parameterizes the Cascade reconciler.
	CascadeConfig = reconcile.CascadeConfig
)

// DefaultCSConfig re-exports the paper's CS comparison setup.
func DefaultCSConfig() CSConfig { return reconcile.DefaultCSConfig() }

// DefaultCascadeConfig re-exports the paper's Han et al. setup.
func DefaultCascadeConfig() CascadeConfig { return reconcile.DefaultCascadeConfig() }

// ---------------------------------------------------------------------
// Autoencoder stage (Vehicle-Key).
// ---------------------------------------------------------------------

// AEStage wraps the autoencoder reconciler behind the salted Bloom
// transform: both wire halves bloom the raw block before touching the
// autoencoder, so the MAC-keying image the protocol sees is the
// Bloom-domain key, never the raw bits.
type AEStage struct {
	ae      *reconcile.AE
	cfg     reconcile.AEConfig
	epochs  int
	samples int
}

// NewAEStage adopts an existing (possibly untrained) autoencoder.
// epochs/samples are the training knobs a later Fit call uses.
func NewAEStage(ae *reconcile.AE, cfg AEConfig, epochs, samples int) *AEStage {
	return &AEStage{ae: ae, cfg: cfg, epochs: epochs, samples: samples}
}

// TrainAE builds a trained autoencoder stage (the Fig. 11 sweep path).
func TrainAE(cfg AEConfig, epochs, samples int, src *rng.Source) *AEStage {
	return &AEStage{ae: reconcile.TrainAE(cfg, epochs, samples, src), cfg: cfg, epochs: epochs, samples: samples}
}

func (s *AEStage) Name() string   { return "autoencoder" }
func (s *AEStage) BlockBits() int { return s.ae.Cfg.KeyBits }

func (s *AEStage) Reconcile(alice, bob, salt []byte) (Outcome, error) {
	return s.ae.Reconcile(alice, bob, salt)
}

func (s *AEStage) BobEncode(block, salt []byte) ([]float64, []byte, error) {
	if len(block) != s.ae.Cfg.KeyBits {
		return nil, nil, &StageError{Stage: "reconciler",
			Err: fmt.Errorf("block length %d, want %d", len(block), s.ae.Cfg.KeyBits)}
	}
	bf := reconcile.BloomFor(len(block), salt)
	bloomKey := bf.Transform(block)
	code := s.ae.EncodeBob(bloomKey)
	return code, bloomKey, nil
}

func (s *AEStage) AliceCorrect(block []byte, code []float64, salt []byte) ([]byte, []byte, error) {
	if len(block) != s.ae.Cfg.KeyBits {
		return nil, nil, &StageError{Stage: "reconciler",
			Err: fmt.Errorf("block length %d, want %d", len(block), s.ae.Cfg.KeyBits)}
	}
	if len(code) != s.ae.Cfg.CodeDim {
		// A hostile or corrupted envelope must fail the round, not
		// index out of range inside the decoder.
		return nil, nil, &StageError{Stage: "reconciler",
			Err: fmt.Errorf("code length %d, want %d", len(code), s.ae.Cfg.CodeDim)}
	}
	bf := reconcile.BloomFor(len(block), salt)
	bloomKey := bf.Transform(block)
	corrected := s.ae.Correct(bloomKey, code)
	secure.Wipe(bloomKey)
	final := bf.Inverse(corrected)
	return final, corrected, nil
}

// EncodeRaw encodes a block without the Bloom transform. It exists for
// the Fig. 9 bloom ablation, which measures exactly the linkage the
// transform is there to destroy.
func (s *AEStage) EncodeRaw(block []byte) []float64 { return s.ae.EncodeBob(block) }

// Fit trains the autoencoder in place with the construction-time knobs.
func (s *AEStage) Fit(src *rng.Source) {
	s.ae = reconcile.TrainAE(s.cfg, s.epochs, s.samples, src)
}

func (s *AEStage) Clone() Reconciler {
	return &AEStage{ae: s.ae.Clone(), cfg: s.cfg, epochs: s.epochs, samples: s.samples}
}

// Save / Load serialize the trained decoder (Persistent).
func (s *AEStage) Save(w io.Writer) error { return s.ae.Save(w) }
func (s *AEStage) Load(r io.Reader) error { return s.ae.Load(r) }

// ---------------------------------------------------------------------
// Compressed-sensing stage (LoRa-Key, Gao).
// ---------------------------------------------------------------------

// CSStage reconciles with the compressed-sensing syndrome over the
// shared sensing matrix; the local path runs the ISTA decode of CSISTA.
// The stage is stateless: the matrix derives from cfg.MatrixSeed.
type CSStage struct {
	cfg   reconcile.CSConfig
	block int
}

// NewCS builds a compressed-sensing reconciler stage over blockBits-bit
// blocks.
func NewCS(cfg CSConfig, blockBits int) *CSStage {
	return &CSStage{cfg: cfg, block: blockBits}
}

func (s *CSStage) Name() string   { return "cs-ista" }
func (s *CSStage) BlockBits() int { return s.block }

func (s *CSStage) Reconcile(alice, bob, _ []byte) (Outcome, error) {
	return reconcile.CSISTA(alice, bob, s.cfg)
}

// BobEncode publishes the CS syndrome. The MAC-keying image is the
// salted one-way BlockImage of the block, never the raw bits: the
// syndrome already hands an eavesdropper cfg.Rows linear equations over
// the block, and a raw-bit MAC key on top would give a cheap offline
// verification oracle for the remaining search space.
func (s *CSStage) BobEncode(block, salt []byte) ([]float64, []byte, error) {
	code := reconcile.CSEncode(block, s.cfg)
	return code, secure.BlockImage(block, salt), nil
}

func (s *CSStage) AliceCorrect(block []byte, code []float64, salt []byte) ([]byte, []byte, error) {
	final, err := reconcile.CSISTACorrect(block, code, s.cfg)
	if err != nil {
		return nil, nil, &StageError{Stage: "reconciler", Err: err}
	}
	return final, secure.BlockImage(final, salt), nil
}

// Clone returns the receiver: a CS stage is stateless.
func (s *CSStage) Clone() Reconciler { return s }

// ---------------------------------------------------------------------
// Cascade stage (Han).
// ---------------------------------------------------------------------

// CascadeStage reconciles with Brassard–Salvail Cascade. The local
// path simulates the interactive protocol with permutations drawn from
// the stage's rng source (one Derive per block, matching the paper's
// evaluation); the wire path publishes the one-shot per-pass block
// parities with permutations derived from the public salt, refusing
// any configuration whose published parity count would reach the block
// size (each parity is one linear equation over the key bits).
type CascadeStage struct {
	cfg    reconcile.CascadeConfig
	block  int
	src    *rng.Source
	cloned bool
}

// NewCascade builds a Cascade reconciler stage over blockBits-bit
// blocks. src feeds the interactive (local-evaluation) permutations and
// may be nil for protocol-only use.
func NewCascade(cfg CascadeConfig, blockBits int, src *rng.Source) *CascadeStage {
	return &CascadeStage{cfg: cfg, block: blockBits, src: src}
}

func (s *CascadeStage) Name() string   { return "cascade" }
func (s *CascadeStage) BlockBits() int { return s.block }

func (s *CascadeStage) Reconcile(alice, bob, _ []byte) (Outcome, error) {
	if s.src == nil {
		if s.cloned {
			return Outcome{}, &StageError{Stage: "reconciler",
				Err: fmt.Errorf("cascade clones carry no interactive rng source (it is mutable state of the original); local reconciliation is unavailable on clones, the wire path derives from the session salt")}
		}
		return Outcome{}, &StageError{Stage: "reconciler",
			Err: fmt.Errorf("cascade stage built without an rng source; local reconciliation unavailable")}
	}
	return reconcile.Cascade(alice, bob, s.cfg, s.src.Derive("cascade"))
}

// leakGuard rejects Cascade configurations whose one-shot syndrome
// would publish at least as many parity equations as the block has
// bits, i.e. hand a passive eavesdropper the whole key.
func (s *CascadeStage) leakGuard(n int) error {
	if leak := reconcile.CascadeSyndromeBits(n, s.cfg); leak >= n {
		return &StageError{Stage: "reconciler",
			Err: fmt.Errorf("cascade wire syndrome would publish %d parities over a %d-bit block; refusing to leak the key", leak, n)}
	}
	return nil
}

func (s *CascadeStage) BobEncode(block, salt []byte) ([]float64, []byte, error) {
	if err := s.leakGuard(len(block)); err != nil {
		return nil, nil, err
	}
	code := reconcile.CascadeSyndromeEncode(block, salt, s.cfg)
	return code, secure.BlockImage(block, salt), nil
}

func (s *CascadeStage) AliceCorrect(block []byte, code []float64, salt []byte) ([]byte, []byte, error) {
	if err := s.leakGuard(len(block)); err != nil {
		return nil, nil, err
	}
	final, err := reconcile.CascadeSyndromeCorrect(block, code, salt, s.cfg)
	if err != nil {
		return nil, nil, &StageError{Stage: "reconciler", Err: err}
	}
	return final, secure.BlockImage(final, salt), nil
}

// Clone drops the interactive rng source rather than share it: the
// source is mutable state, and deriving a child would itself consume a
// draw from the original, so either choice silently couples clone and
// original. Clones keep the full wire path (its randomness derives from
// the public salt); the local Reconcile path reports a tailored error.
func (s *CascadeStage) Clone() Reconciler {
	return &CascadeStage{cfg: s.cfg, block: s.block, cloned: true}
}
