package nn

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestPredictorOutputShapes(t *testing.T) {
	src := rng.New(1)
	p := NewPredictor(PredictorConfig{SeqLen: 16, Hidden: 4, Bits: 32, Theta: 0.9}, src)
	seq := make([]float64, 16)
	yHat, zHat := p.Forward(seq)
	if len(yHat) != 16 || len(zHat) != 32 {
		t.Fatalf("shapes %d/%d, want 16/32", len(yHat), len(zHat))
	}
}

func TestPredictorSigmoidBounds(t *testing.T) {
	src := rng.New(2)
	p := NewPredictor(PredictorConfig{SeqLen: 8, Hidden: 4, Bits: 16, Theta: 0.9}, src)
	f := func(raw [8]int8) bool {
		seq := make([]float64, 8)
		for i, v := range raw {
			seq[i] = float64(v) / 32
		}
		_, zHat := p.Forward(seq)
		for _, z := range zHat {
			if z < 0 || z > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestPredictorSaveLoadDeterministic(t *testing.T) {
	src := rng.New(3)
	cfg := PredictorConfig{SeqLen: 8, Hidden: 4, Bits: 16, Theta: 0.9}
	p1 := NewPredictor(cfg, src)
	var buf bytes.Buffer
	if err := SaveParams(&buf, p1.Params()); err != nil {
		t.Fatal(err)
	}
	p2 := NewPredictor(cfg, rng.New(4))
	if err := LoadParams(&buf, p2.Params()); err != nil {
		t.Fatal(err)
	}
	seq := make([]float64, 8)
	for i := range seq {
		seq[i] = src.Normal(0, 1)
	}
	y1, z1 := p1.Forward(seq)
	y2, z2 := p2.Forward(seq)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatal("prediction head differs after load")
		}
	}
	for i := range z1 {
		if z1[i] != z2[i] {
			t.Fatal("quantization head differs after load")
		}
	}
}

func TestLoadParamsRejectsMismatch(t *testing.T) {
	src := rng.New(5)
	p1 := NewPredictor(PredictorConfig{SeqLen: 8, Hidden: 4, Bits: 16}, src)
	var buf bytes.Buffer
	if err := SaveParams(&buf, p1.Params()); err != nil {
		t.Fatal(err)
	}
	p2 := NewPredictor(PredictorConfig{SeqLen: 8, Hidden: 8, Bits: 16}, src)
	if err := LoadParams(&buf, p2.Params()); err == nil {
		t.Fatal("loading mismatched shapes must fail")
	}
}

func TestMaskedLossIgnoresMaskedPositions(t *testing.T) {
	y := []float64{0, 0}
	yHat := []float64{0, 0}
	z := []byte{1, 0}
	zHat := []float64{0.2, 0.9} // both "wrong"
	mask := []bool{false, false}
	loss, _, dz := JointLoss(0.5, y, yHat, z, zHat, mask)
	if loss != 0 {
		t.Errorf("fully masked loss = %v, want 0", loss)
	}
	for _, g := range dz {
		if g != 0 {
			t.Error("masked gradients must be zero")
		}
	}
	mask[0] = true
	loss, _, dz = JointLoss(0.5, y, yHat, z, zHat, mask)
	if loss <= 0 || dz[0] == 0 || dz[1] != 0 {
		t.Errorf("half-masked: loss=%v dz=%v", loss, dz)
	}
}

func TestClipGrad(t *testing.T) {
	p := NewParam("p", 3)
	p.G[0], p.G[1], p.G[2] = 3, 4, 0 // norm 5
	ps := Params{p}
	ps.ClipGrad(2.5)
	if p.G[0] != 1.5 || p.G[1] != 2 {
		t.Errorf("clipped grads = %v", p.G)
	}
	ps.ClipGrad(100) // under the cap: unchanged
	if p.G[0] != 1.5 {
		t.Error("grads below the cap must not change")
	}
}
