package nn

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// numericalGrad perturbs each weight of ps and compares the analytic
// gradient against central finite differences of lossFn.
func checkGrads(t *testing.T, ps Params, lossFn func() float64, tol float64) {
	t.Helper()
	const h = 1e-5
	// Populate analytic gradients.
	ps.ZeroGrad()
	lossFn()
	analytic := make([][]float64, len(ps))
	for i, p := range ps {
		analytic[i] = append([]float64(nil), p.G...)
	}
	for pi, p := range ps {
		// Spot-check a handful of entries per tensor to keep runtime sane.
		stride := len(p.W)/5 + 1
		for wi := 0; wi < len(p.W); wi += stride {
			orig := p.W[wi]
			p.W[wi] = orig + h
			ps.ZeroGrad()
			lp := lossFn()
			p.W[wi] = orig - h
			ps.ZeroGrad()
			lm := lossFn()
			p.W[wi] = orig
			num := (lp - lm) / (2 * h)
			got := analytic[pi][wi]
			denom := math.Max(1e-6, math.Abs(num)+math.Abs(got))
			if math.Abs(num-got)/denom > tol {
				t.Errorf("%s[%d]: analytic %.8f vs numerical %.8f", p.Name, wi, got, num)
			}
		}
	}
}

func TestDenseGradient(t *testing.T) {
	src := rng.New(1)
	d := NewDense("d", 5, 3, Tanh, src)
	x := []float64{0.3, -0.2, 0.9, -1.1, 0.5}
	y := []float64{0.1, -0.4, 0.7}
	out := make([]float64, len(y))
	lossFn := func() float64 {
		d.forward(x, 1, out)
		loss, grad := refMSE(y, out)
		d.backward(x, out, grad, 1, nil)
		return loss
	}
	checkGrads(t, d.Params(), lossFn, 1e-4)
}

func TestDenseSigmoidBCEGradient(t *testing.T) {
	src := rng.New(2)
	d := NewDense("d", 4, 6, Sigmoid, src)
	x := []float64{0.5, -0.3, 1.2, 0.1}
	z := []byte{1, 0, 1, 1, 0, 0}
	out := make([]float64, len(z))
	lossFn := func() float64 {
		d.forward(x, 1, out)
		loss, grad := refBCE(z, out)
		d.backward(x, out, grad, 1, nil)
		return loss
	}
	checkGrads(t, d.Params(), lossFn, 1e-4)
}

func TestLSTMGradient(t *testing.T) {
	src := rng.New(3)
	l := NewLSTM("l", 2, 4, src)
	xs := []float64{0.5, -0.1, 0.2, 0.8, -0.7, 0.3, 0.1, 0.1}
	targets := []float64{0.3, -0.2, 0.5, 0.1}
	const T, hd = 4, 4
	hs := make([]float64, T*hd)
	lossFn := func() float64 {
		l.Forward(xs, T, hs)
		// Loss over the first hidden unit of every step.
		var loss float64
		dhs := make([]float64, T*hd)
		for tt := 0; tt < T; tt++ {
			d := hs[tt*hd] - targets[tt]
			loss += d * d
			dhs[tt*hd] = 2 * d
		}
		l.Backward(dhs)
		return loss
	}
	checkGrads(t, l.Params(), lossFn, 1e-4)
}

func TestBiLSTMGradient(t *testing.T) {
	src := rng.New(4)
	b := NewBiLSTM("b", 1, 3, src)
	xs := []float64{0.5, -0.2, 0.9, 0.05}
	lossFn := func() float64 {
		hs := b.Forward(xs, len(xs))
		var loss float64
		dhs := make([]float64, len(hs))
		for i, v := range hs {
			loss += v * v
			dhs[i] = 2 * v
		}
		b.Backward(dhs)
		return loss
	}
	checkGrads(t, b.Params(), lossFn, 1e-4)
}

func TestPredictorGradient(t *testing.T) {
	src := rng.New(5)
	p := NewPredictor(PredictorConfig{SeqLen: 6, Hidden: 3, Bits: 12, Theta: 0.7}, src)
	alice := []float64{0.5, -0.1, 0.2, 0.9, -0.3, 0.4}
	bob := []float64{0.4, -0.2, 0.3, 0.8, -0.2, 0.5}
	bits := []byte{1, 0, 1, 1, 0, 0, 1, 0, 0, 1, 1, 0}
	lossFn := func() float64 { return p.TrainStep(alice, bob, bits, nil) }
	checkGrads(t, p.Params(), lossFn, 2e-4)
}

func TestPredictorLearnsIdentityMapping(t *testing.T) {
	// A sanity fit: Bob's sequence is a noisy shift of Alice's and the
	// bits are a threshold of Bob's values. The model should learn this
	// quickly at small size.
	src := rng.New(6)
	cfg := PredictorConfig{SeqLen: 8, Hidden: 8, Bits: 8, Theta: 0.9}
	p := NewPredictor(cfg, src)
	var samples []TrainSample
	for i := 0; i < 60; i++ {
		alice := make([]float64, cfg.SeqLen)
		bob := make([]float64, cfg.SeqLen)
		bits := make([]byte, cfg.Bits)
		for j := range alice {
			alice[j] = src.Normal(0, 1)
			bob[j] = alice[j] + src.Normal(0, 0.05)
			if bob[j] > 0 {
				bits[j] = 1
			}
		}
		samples = append(samples, TrainSample{Alice: alice, Bob: bob, Bits: bits})
	}
	tr := NewTrainer(p, 0.01, src.Derive("train"))
	losses := tr.Fit(samples, 30)
	if losses[len(losses)-1] >= losses[0]*0.5 {
		t.Fatalf("loss should halve: first %.4f last %.4f", losses[0], losses[len(losses)-1])
	}
	// Check bit accuracy on fresh samples.
	correct, total := 0, 0
	for i := 0; i < 20; i++ {
		alice := make([]float64, cfg.SeqLen)
		bits := make([]byte, cfg.Bits)
		for j := range alice {
			alice[j] = src.Normal(0, 1)
			if alice[j] > 0 {
				bits[j] = 1
			}
		}
		_, zHat := p.ForwardBatched(alice)
		got := Bits(zHat)
		for j := range bits {
			if got[j] == bits[j] {
				correct++
			}
			total++
		}
	}
	acc := float64(correct) / float64(total)
	t.Logf("holdout bit accuracy: %.3f", acc)
	if acc < 0.85 {
		t.Fatalf("bit accuracy %.3f too low", acc)
	}
}
