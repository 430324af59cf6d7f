package nn

import (
	"math"
	"testing"

	"repro/internal/channel"
	"repro/internal/rng"
	"repro/internal/trace"
)

func sameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d: batched %.17g != reference %.17g (ulp-level mismatch)",
				name, i, got[i], want[i])
		}
	}
}

// TestLSTMForwardInferByteIdentical pins the batched LSTM forward to the
// per-step reference (trainref_test.go) at the bit level, including
// InDim > 1 and repeated calls on one instance (scratch reuse).
func TestLSTMForwardInferByteIdentical(t *testing.T) {
	for _, dims := range [][3]int{{1, 8, 5}, {3, 16, 9}, {2, 70, 4}} {
		in, hd, T := dims[0], dims[1], dims[2]
		src := rng.New(int64(100*in + hd))
		l := NewLSTM("t", in, hd, src)
		for rep := 0; rep < 3; rep++ {
			xs := make([][]float64, T)
			flat := make([]float64, T*in)
			for i := range flat {
				flat[i] = src.Normal(0, 1.5)
			}
			for ti := 0; ti < T; ti++ {
				xs[ti] = flat[ti*in : (ti+1)*in]
			}
			ref := (&refLSTM{l: l}).forward(xs)
			got := make([]float64, T*hd)
			l.Forward(flat, T, got)
			for ti := 0; ti < T; ti++ {
				sameBits(t, "LSTM h", got[ti*hd:(ti+1)*hd], ref[ti])
			}
		}
	}
}

func TestBiLSTMForwardInferByteIdentical(t *testing.T) {
	src := rng.New(7)
	const in, hd, T = 1, 24, 12
	b := NewBiLSTM("t", in, hd, src)
	flat := make([]float64, T*in)
	xs := make([][]float64, T)
	for i := range flat {
		flat[i] = src.Normal(0, 1)
	}
	for ti := 0; ti < T; ti++ {
		xs[ti] = flat[ti*in : (ti+1)*in]
	}
	ref := newRefBiLSTM(b).forward(xs)
	got := b.Forward(flat, T)
	for ti := 0; ti < T; ti++ {
		sameBits(t, "BiLSTM h", got[ti*2*hd:(ti+1)*2*hd], ref[ti])
	}
}

func TestMLPForwardInferByteIdentical(t *testing.T) {
	src := rng.New(8)
	m := NewMLP("t", 2, []MLPSpec{{16, ReLU}, {16, ReLU}, {1, Sigmoid}}, src)
	const rows = 37
	xs := make([]float64, rows*2)
	for i := range xs {
		xs[i] = src.Normal(0, 2)
	}
	out := m.Forward(featureMajor(xs, rows, 2), rows)
	rm := newRefMLP(m)
	for r := 0; r < rows; r++ {
		ref := rm.forward(xs[r*2 : r*2+2])
		sameBits(t, "MLP out", out[r:r+1], ref)
	}
}

// TestMLPFeatureMajorShapes runs the feature-major layout at shapes
// the AE decoder does not use (three inputs, a tanh layer, a
// three-wide identity output, a row count that is not a multiple of
// four) and compares every output and gradient with the per-sample
// layer loops.
func TestMLPFeatureMajorShapes(t *testing.T) {
	src := rng.New(10)
	spec := []MLPSpec{{5, Tanh}, {7, ReLU}, {3, Identity}}
	prod := NewMLP("s", 3, spec, src)
	ref := NewMLP("s", 3, spec, rng.New(1))
	cloneInto(t, ref.Params(), prod.Params())
	const rows = 13
	xs := randFlat(src, rows*3, 2)
	dy := randFlat(src, rows*3, 1)
	out := prod.Forward(featureMajor(xs, rows, 3), rows)
	rm := newRefMLP(ref)
	for r := 0; r < rows; r++ {
		want := rm.forward(xs[r*3 : r*3+3])
		got := []float64{out[r], out[rows+r], out[2*rows+r]}
		sameBits(t, "MLP out", got, want)
		rm.backward([]float64{dy[r*3], dy[r*3+1], dy[r*3+2]})
	}
	prod.Backward(featureMajor(dy, rows, 3))
	sameTensors(t, "MLP", prod.Params(), ref.Params())
}

// featureMajor returns the rows×width row-major xs laid out as MLP takes
// it: width×rows, element (r, i) at i*rows+r.
func featureMajor(xs []float64, rows, width int) []float64 {
	out := make([]float64, len(xs))
	for r := 0; r < rows; r++ {
		for i := 0; i < width; i++ {
			out[i*rows+r] = xs[r*width+i]
		}
	}
	return out
}

// TestForwardByteIdentical is the linchpin of the batched path:
// the predictor's forward must reproduce the per-step reference
// bit-for-bit on random sequences, so every downstream key bit is
// unchanged.
func TestForwardByteIdentical(t *testing.T) {
	cfgs := []PredictorConfig{
		{SeqLen: 8, Hidden: 12, Bits: 16, Theta: 0.9},
		{SeqLen: 32, Hidden: 32, Bits: 64, Theta: 0.9},
		{SeqLen: 16, Hidden: 130, Bits: 32, Theta: 0.9}, // crosses the GEMM block edge
	}
	for _, cfg := range cfgs {
		src := rng.New(int64(cfg.Hidden))
		p := NewPredictor(cfg, src)
		rp := newRefPredictor(p)
		for rep := 0; rep < 4; rep++ {
			seq := make([]float64, cfg.SeqLen)
			for i := range seq {
				seq[i] = src.Normal(0, 1)
			}
			yRef, zRef := rp.forward(seq)
			yGot, zGot := p.Forward(seq)
			sameBits(t, "yHat", yGot, yRef)
			sameBits(t, "zHat", zGot, zRef)
		}
	}
}

// TestForwardScenarioWindows repeats the byte-identity check on
// real collected windows from all four paper scenarios (Urban/Rural ×
// V2V/V2I), the inputs the golden-key tests feed end to end.
func TestForwardScenarioWindows(t *testing.T) {
	src := rng.New(1)
	p := NewPredictor(PredictorConfig{SeqLen: 32, Hidden: 24, Bits: 64, Theta: 0.9}, src)
	rp := newRefPredictor(p)
	for _, env := range []channel.Environment{channel.Urban, channel.Rural} {
		for _, link := range []channel.LinkType{channel.V2V, channel.V2I} {
			sc := trace.NewScenario(env, link)
			ds, err := trace.Build(sc, 1, 6, 32, trace.DefaultExtract())
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range ds.Samples {
				yRef, zRef := rp.forward(s.Alice)
				yGot, zGot := p.Forward(s.Alice)
				sameBits(t, sc.Name+" yHat", yGot, yRef)
				sameBits(t, sc.Name+" zHat", zGot, zRef)
			}
		}
	}
}
