package nn

import (
	"fmt"

	"repro/internal/rng"
)

// PredictorConfig sizes the Vehicle-Key prediction+quantization network.
type PredictorConfig struct {
	SeqLen int     // input/predicted arRSSI sequence length (paper: 32)
	Hidden int     // BiLSTM hidden units per direction (paper: 128)
	Bits   int     // quantization head width (paper: 64)
	Theta  float64 // joint-loss weight θ (paper: 0.9)
}

// normalize fills unset fields with the paper's architecture: a 32-cell
// BiLSTM with 128 hidden units, a 32-unit prediction layer, a 64-unit
// sigmoid quantization layer and θ = 0.9.
func (c *PredictorConfig) normalize() {
	if c.SeqLen <= 0 {
		c.SeqLen = 32
	}
	if c.Hidden <= 0 {
		c.Hidden = 128
	}
	if c.Bits <= 0 {
		c.Bits = 64
	}
	if c.Theta <= 0 || c.Theta >= 1 {
		c.Theta = 0.9
	}
}

// Predictor is the paper's joint prediction and quantization model
// (Fig. 6): a BiLSTM over Alice's arRSSI sequence, a fully connected
// prediction layer emitting Bob's predicted arRSSI sequence (one output
// per step — 32 units), and a fully connected sigmoid quantization layer
// emitting the key bits (two per step — 64 units). Both heads are applied
// per timestep with shared weights (Keras TimeDistributed(Dense), the
// standard head on a BiLSTM): the task is translation-equivariant along
// the sequence, and weight sharing is what lets the model generalize from
// the modest number of probe sequences a drive collects. Each head runs
// as one GEMM over all timesteps.
type Predictor struct {
	Cfg PredictorConfig

	bilstm  *BiLSTM
	fcPred  *Dense // 2H → 1, Identity
	fcQuant *Dense // 2H → BitsPerStep, Sigmoid
	perStep int    // bits per step = Bits/SeqLen

	sc trainScratch
}

// trainScratch holds TrainStep's reusable buffers.
type trainScratch struct {
	yHat, zHat []float64 // head outputs
	dy, dz     []float64 // loss gradients w.r.t. the head outputs
	dh, dhq    []float64 // head input gradients (T×2H) per head
}

// NewPredictor builds the model with weights drawn from src. Bits must be
// a multiple of SeqLen.
func NewPredictor(cfg PredictorConfig, src *rng.Source) *Predictor {
	cfg.normalize()
	if cfg.Bits%cfg.SeqLen != 0 {
		panic(fmt.Sprintf("nn: Bits %d must be a multiple of SeqLen %d", cfg.Bits, cfg.SeqLen))
	}
	p := &Predictor{
		Cfg:     cfg,
		bilstm:  NewBiLSTM("predictor.bilstm", 1, cfg.Hidden, src),
		perStep: cfg.Bits / cfg.SeqLen,
	}
	p.fcPred = NewDense("predictor.fcPred", 2*cfg.Hidden, 1, Identity, src)
	p.fcQuant = NewDense("predictor.fcQuant", 2*cfg.Hidden, p.perStep, Sigmoid, src)
	return p
}

// Params returns every learnable tensor in the model.
func (p *Predictor) Params() Params {
	ps := p.bilstm.Params()
	ps = append(ps, p.fcPred.Params()...)
	ps = append(ps, p.fcQuant.Params()...)
	return ps
}

// forward runs the BiLSTM over aliceSeq and both heads over all of its
// timesteps, writing yHat (T) and zHat (T·BitsPerStep). It returns the
// BiLSTM features, scratch valid until the next forward.
func (p *Predictor) forward(aliceSeq, yHat, zHat []float64) []float64 {
	T := p.Cfg.SeqLen
	if len(aliceSeq) != T {
		panic(fmt.Sprintf("nn: Predictor wants %d-step sequences, got %d", T, len(aliceSeq)))
	}
	// InDim is 1, so the sequence itself is the flat T×1 input matrix.
	hs := p.bilstm.Forward(aliceSeq, T)
	p.fcPred.forward(hs, T, yHat)
	p.fcQuant.forward(hs, T, zHat)
	return hs
}

// Forward maps Alice's normalized arRSSI sequence to (predicted
// Bob sequence, soft bit probabilities), both freshly allocated. Not
// safe for concurrent use on one instance.
func (p *Predictor) Forward(aliceSeq []float64) (yHat, zHat []float64) {
	yHat = make([]float64, p.Cfg.SeqLen)
	zHat = make([]float64, p.Cfg.Bits)
	p.forward(aliceSeq, yHat, zHat)
	return yHat, zHat
}

// Bits hardens soft probabilities at the 0.5 threshold.
func Bits(zHat []float64) []byte {
	out := make([]byte, len(zHat))
	for i, v := range zHat {
		if v > 0.5 {
			out[i] = 1
		}
	}
	return out
}

// TrainStep runs one forward/backward pass against Bob's measured
// sequence y and quantized bits z, accumulates gradients, and returns the
// joint loss. mask, when non-nil, limits the bit loss to the positions
// Bob's quantizer kept. The caller applies the optimizer step (allowing
// simple mini-batching by accumulating several samples first). Every
// gradient is bit-identical to the per-step reference (trainref_test.go),
// and the step allocates nothing once its scratch has grown.
func (p *Predictor) TrainStep(aliceSeq, y []float64, z []byte, mask []bool) float64 {
	T, feat := p.Cfg.SeqLen, 2*p.Cfg.Hidden
	s := &p.sc
	yHat := grow(&s.yHat, T)
	zHat := grow(&s.zHat, p.Cfg.Bits)
	hs := p.forward(aliceSeq, yHat, zHat)
	dy := grow(&s.dy, T)
	dz := grow(&s.dz, p.Cfg.Bits)
	loss := jointLoss(p.Cfg.Theta, y, yHat, z, zHat, mask, dy, dz)

	// Both per-step heads feed gradients back into the shared features;
	// each head's sum is formed on its own, then the two are added.
	dh := grow(&s.dh, T*feat)
	dhq := grow(&s.dhq, T*feat)
	p.fcPred.backward(hs, yHat, dy, T, dh)
	p.fcQuant.backward(hs, zHat, dz, T, dhq)
	for i, v := range dhq {
		dh[i] += v
	}
	p.bilstm.Backward(dh)
	return loss
}

// TrainSample couples one input sequence with its targets. Mask, when
// non-nil, marks the bit positions that contribute to the BCE term.
type TrainSample struct {
	Alice []float64
	Bob   []float64
	Bits  []byte
	Mask  []bool
}

// Trainer drives epochs of Adam training over a sample set.
type Trainer struct {
	Model     *Predictor
	Opt       *Adam
	BatchSize int
	ClipNorm  float64
	src       *rng.Source
}

// NewTrainer builds a trainer with the paper-ish defaults: Adam at the
// given learning rate, batch size 8, gradient clipping at norm 5.
func NewTrainer(model *Predictor, lr float64, src *rng.Source) *Trainer {
	return &Trainer{Model: model, Opt: NewAdam(lr), BatchSize: 8, ClipNorm: 5, src: src}
}

// Epoch shuffles and trains over all samples once, returning the mean
// loss.
func (tr *Trainer) Epoch(samples []TrainSample) float64 {
	idx := tr.src.Perm(len(samples))
	params := tr.Model.Params()
	var total float64
	inBatch := 0
	for _, id := range idx {
		s := samples[id]
		total += tr.Model.TrainStep(s.Alice, s.Bob, s.Bits, s.Mask)
		inBatch++
		if inBatch == tr.BatchSize {
			params.ClipGrad(tr.ClipNorm)
			tr.Opt.Step(params)
			inBatch = 0
		}
	}
	if inBatch > 0 {
		params.ClipGrad(tr.ClipNorm)
		tr.Opt.Step(params)
	}
	return total / float64(len(samples))
}

// Fit trains for epochs epochs and returns the per-epoch mean losses.
func (tr *Trainer) Fit(samples []TrainSample, epochs int) []float64 {
	losses := make([]float64, 0, epochs)
	for e := 0; e < epochs; e++ {
		losses = append(losses, tr.Epoch(samples))
	}
	return losses
}
