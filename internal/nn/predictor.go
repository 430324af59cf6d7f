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

// DefaultPredictorConfig returns the paper's architecture: a 32-cell
// BiLSTM with 128 hidden units, a 32-unit prediction layer, a 64-unit
// sigmoid quantization layer and θ = 0.9.
func DefaultPredictorConfig() PredictorConfig {
	return PredictorConfig{SeqLen: 32, Hidden: 128, Bits: 64, Theta: 0.9}
}

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
// the modest number of probe sequences a drive collects.
type Predictor struct {
	Cfg PredictorConfig

	bilstm *BiLSTM
	// Shared per-timestep heads. Each timestep t gets its own cache view
	// so Forward can run all steps before Backward (see Dense.ShareWeights).
	fcPred  []*Dense // 2H → 1, Identity
	fcQuant []*Dense // 2H → BitsPerStep, Sigmoid
	perStep int      // bits per step = Bits/SeqLen
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
	pred := NewDense("predictor.fcPred", 2*cfg.Hidden, 1, Identity, src)
	quant := NewDense("predictor.fcQuant", 2*cfg.Hidden, p.perStep, Sigmoid, src)
	p.fcPred = make([]*Dense, cfg.SeqLen)
	p.fcQuant = make([]*Dense, cfg.SeqLen)
	p.fcPred[0], p.fcQuant[0] = pred, quant
	for t := 1; t < cfg.SeqLen; t++ {
		p.fcPred[t] = pred.ShareWeights()
		p.fcQuant[t] = quant.ShareWeights()
	}
	return p
}

// Params returns every learnable tensor in the model (shared heads listed
// once).
func (p *Predictor) Params() Params {
	ps := p.bilstm.Params()
	ps = append(ps, p.fcPred[0].Params()...)
	ps = append(ps, p.fcQuant[0].Params()...)
	return ps
}

// Forward maps Alice's normalized arRSSI sequence to (predicted Bob
// sequence, soft bit probabilities).
func (p *Predictor) Forward(aliceSeq []float64) (yHat, zHat []float64) {
	if len(aliceSeq) != p.Cfg.SeqLen {
		panic(fmt.Sprintf("nn: Predictor wants %d-step sequences, got %d", p.Cfg.SeqLen, len(aliceSeq)))
	}
	xs := make([][]float64, len(aliceSeq))
	for t, v := range aliceSeq {
		xs[t] = []float64{v}
	}
	hs := p.bilstm.Forward(xs)
	yHat = make([]float64, p.Cfg.SeqLen)
	zHat = make([]float64, 0, p.Cfg.Bits)
	for t, h := range hs {
		yHat[t] = p.fcPred[t].Forward(h)[0]
		zHat = append(zHat, p.fcQuant[t].Forward(h)...)
	}
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
// simple mini-batching by accumulating several samples first).
func (p *Predictor) TrainStep(aliceSeq, y []float64, z []byte, mask []bool) float64 {
	yHat, zHat := p.Forward(aliceSeq)
	loss, dyHat, dzHat := JointLoss(p.Cfg.Theta, y, yHat, z, zHat, mask)

	// Both per-step heads feed gradients back into the shared features.
	douts := make([][]float64, p.Cfg.SeqLen)
	for t := 0; t < p.Cfg.SeqLen; t++ {
		dh := p.fcPred[t].Backward(dyHat[t : t+1])
		dhq := p.fcQuant[t].Backward(dzHat[t*p.perStep : (t+1)*p.perStep])
		for i := range dh {
			dh[i] += dhq[i]
		}
		douts[t] = dh
	}
	p.bilstm.Backward(douts)
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
