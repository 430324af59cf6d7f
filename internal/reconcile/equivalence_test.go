package reconcile

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/rng"
)

// The oracles below are the scalar reconciler internals the GEMM-backed
// production code replaced: per-element encoder loops, the
// column-strided backprojection, and per-position decoder forward and
// backward passes. They are kept here only to pin the production path
// to them bit for bit.

// scalarEncode is the branchy per-element encoder loop.
func scalarEncode(ae *AE, bits []byte) []float64 {
	n, m := ae.Cfg.KeyBits, ae.Cfg.CodeDim
	out := make([]float64, m)
	for r := 0; r < m; r++ {
		row := ae.w[r*n : (r+1)*n]
		var s float64
		for c := 0; c < n; c++ {
			if bits[c] == 1 {
				s += row[c]
			} else {
				s -= row[c]
			}
		}
		out[r] = s
	}
	return out
}

// columnBackproject computes Wᵀh by striding down W's columns.
func columnBackproject(ae *AE, h []float64) []float64 {
	n, m := ae.Cfg.KeyBits, ae.Cfg.CodeDim
	out := make([]float64, n)
	for c := 0; c < n; c++ {
		var s float64
		for r := 0; r < m; r++ {
			s += ae.w[r*n+c] * h[r]
		}
		out[c] = s
	}
	return out
}

// scalarCorrect is Correct with every fast internal swapped for its
// oracle: scalar encode, column-strided backprojection, and one
// decoder pass per candidate position.
func scalarCorrect(ae *AE, bloomKeyAlice []byte, yBob []float64) []byte {
	n := ae.Cfg.KeyBits
	out := append([]byte(nil), bloomKeyAlice...)
	yAlice := scalarEncode(ae, out)
	h := make([]float64, len(yBob))
	for i := range h {
		h[i] = yBob[i] - yAlice[i]
	}
	features := func() ([]float64, float64) {
		bp := columnBackproject(ae, h)
		var hNorm float64
		for _, v := range h {
			hNorm += v * v
		}
		for i, v := range bp {
			bp[i] = math.Abs(v)
		}
		return bp, hNorm / 4
	}
	if _, kHat0 := features(); kHat0 > ae.Cfg.MaxMismatch*float64(n)*1.2 {
		return out
	}
	dec := newScalarDecoder(ae)
	in := make([]float64, 2)
	scores := make([]float64, n)
	for round := 0; round < decodeRounds; round++ {
		absBP, kHat := features()
		kRemain := int(kHat + 0.5)
		if kRemain <= 0 {
			break
		}
		var candidates []int
		if round == 0 {
			for j := 0; j < n; j++ {
				candidates = append(candidates, j)
			}
		} else {
			candidates = topIndices(absBP, min(4*kRemain+8, n), nil)
		}
		for i := range scores {
			scores[i] = -1
		}
		for _, j := range candidates {
			in[0], in[1] = absBP[j], kHat
			scores[j] = dec.forward(in)
		}
		quota := (kRemain + 1) / 2
		if round == decodeRounds-1 {
			quota = kRemain
		}
		flipped := 0
		for flipped < quota {
			best, bestScore := -1, 0.3
			for j, s := range scores {
				if s > bestScore {
					bestScore, best = s, j
				}
			}
			if best < 0 {
				break
			}
			scores[best] = -1
			ae.cancelFlip(out, best, h)
			flipped++
		}
		if flipped == 0 {
			break
		}
	}
	return out
}

// scalarDecoder runs the shared decoder one position at a time with
// the per-sample dense loops the batched MLP replaced, on the AE's own
// parameters (layers ReLU, ReLU, Sigmoid).
type scalarDecoder struct {
	ps     nn.Params // W0, b0, W1, b1, W2, b2
	acts   []nn.Activation
	xs, ys [][]float64 // per-layer input and output of the last forward
}

func newScalarDecoder(ae *AE) *scalarDecoder {
	return &scalarDecoder{ps: ae.dec.Params(), acts: []nn.Activation{nn.ReLU, nn.ReLU, nn.Sigmoid}}
}

func (d *scalarDecoder) forward(x []float64) float64 {
	d.xs, d.ys = d.xs[:0], d.ys[:0]
	for l, act := range d.acts {
		w, b := d.ps[2*l], d.ps[2*l+1]
		in := len(x)
		y := make([]float64, len(b.W))
		for o := range y {
			sum := b.W[o]
			row := w.W[o*in : (o+1)*in]
			for i, xi := range x {
				sum += row[i] * xi
			}
			y[o] = act.Apply(sum)
		}
		d.xs, d.ys = append(d.xs, x), append(d.ys, y)
		x = y
	}
	return x[0]
}

func (d *scalarDecoder) backward(dout float64) {
	dy := []float64{dout}
	for l := len(d.acts) - 1; l >= 0; l-- {
		w, b := d.ps[2*l], d.ps[2*l+1]
		x, y := d.xs[l], d.ys[l]
		in := len(x)
		dx := make([]float64, in)
		for o := range y {
			dz := dy[o] * d.acts[l].DerivFromOutput(y[o])
			b.G[o] += dz
			row := w.W[o*in : (o+1)*in]
			grow := w.G[o*in : (o+1)*in]
			for i := 0; i < in; i++ {
				grow[i] += dz * x[i]
				dx[i] += dz * row[i]
			}
		}
		dy = dx
	}
}

// scalarTrainStep is trainStep with one decoder forward and backward
// per bit position.
func scalarTrainStep(ae *AE, dec *scalarDecoder, ka, kb []byte) float64 {
	yB := scalarEncode(ae, kb)
	yA := scalarEncode(ae, ka)
	h := make([]float64, len(yB))
	for i := range h {
		h[i] = yB[i] - yA[i]
	}
	var hNorm float64
	for _, v := range h {
		hNorm += v * v
	}
	absBP := columnBackproject(ae, h)
	for i, v := range absBP {
		absBP[i] = math.Abs(v)
	}
	kHat := hNorm / 4
	const posWeight = 4.0
	const eps = 1e-9
	var loss float64
	in := make([]float64, 2)
	for j := 0; j < ae.Cfg.KeyBits; j++ {
		in[0], in[1] = absBP[j], kHat
		p := dec.forward(in)
		if p < eps {
			p = eps
		}
		if p > 1-eps {
			p = 1 - eps
		}
		var dout float64
		if ka[j] != kb[j] {
			loss += -posWeight * math.Log(p)
			dout = -posWeight / p
		} else {
			loss += -math.Log(1 - p)
			dout = 1 / (1 - p)
		}
		dout /= float64(ae.Cfg.KeyBits)
		dec.backward(dout)
	}
	return loss / float64(ae.Cfg.KeyBits)
}

// scalarTrainAE is TrainAE driving scalarTrainStep.
func scalarTrainAE(cfg AEConfig, epochs, samplesPerEpoch int, src *rng.Source) *AE {
	cfg.normalize()
	ae := NewAE(cfg, src.Derive("init"))
	dec := newScalarDecoder(ae)
	opt := nn.NewAdam(2e-3)
	params := ae.Params()
	data := src.Derive("data")
	for e := 0; e < epochs; e++ {
		switch {
		case e >= 2*epochs/3:
			opt.LR = 4e-4
		case e >= epochs/3:
			opt.LR = 1e-3
		}
		for s := 0; s < samplesPerEpoch; s++ {
			kb := data.Bits(cfg.KeyBits)
			ka := make([]byte, cfg.KeyBits)
			copy(ka, kb)
			rate := data.Uniform(0, cfg.MaxMismatch)
			for i := range ka {
				if data.Bernoulli(rate) {
					ka[i] ^= 1
				}
			}
			scalarTrainStep(ae, dec, ka, kb)
			params.ClipGrad(5)
			opt.Step(params)
		}
	}
	return ae
}

func sameParams(t *testing.T, what string, got, want nn.Params) {
	t.Helper()
	for i := range want {
		if !sameFloats(got[i].W, want[i].W) || !sameFloats(got[i].G, want[i].G) {
			t.Fatalf("%s: tensor %s differs from the per-position oracle", what, want[i].Name)
		}
	}
}

var aeRefConfigs = []AEConfig{
	{KeyBits: 64, CodeDim: 32, DecoderUnits: 16, MaxMismatch: 0.15},
	{KeyBits: 128, CodeDim: 32, DecoderUnits: 16, MaxMismatch: 0.15},
	{KeyBits: 128, CodeDim: 16, DecoderUnits: 8, MaxMismatch: 0.3},
}

// TestAETrainStepBitIdentical compares the loss and every decoder
// gradient after one batched training step with the per-position
// oracle's, over key pairs from identical to heavily mismatched.
func TestAETrainStepBitIdentical(t *testing.T) {
	for ci, cfg := range aeRefConfigs {
		ae := NewAE(cfg, rng.New(int64(ci+1)))
		ref := ae.Clone()
		dec := newScalarDecoder(ref)
		src := rng.New(int64(ci + 50))
		for step := 0; step < 6; step++ {
			kb := src.Bits(cfg.KeyBits)
			ka := flipBits(kb, step*step, src)
			got := ae.trainStep(ka, kb)
			want := scalarTrainStep(ref, dec, ka, kb)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("config %d step %d: loss %.17g != oracle %.17g", ci, step, got, want)
			}
			sameParams(t, fmt.Sprintf("config %d step %d", ci, step), ae.Params(), ref.Params())
		}
	}
}

// TestTrainAEWeightsBitIdentical trains the reconciler for a few epochs
// both ways and demands identical weights to the bit.
func TestTrainAEWeightsBitIdentical(t *testing.T) {
	for ci, cfg := range aeRefConfigs {
		got := TrainAE(cfg, 3, 25, rng.New(int64(ci+11)))
		want := scalarTrainAE(cfg, 3, 25, rng.New(int64(ci+11)))
		sameParams(t, fmt.Sprintf("config %d", ci), got.Params(), want.Params())
	}
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestAEFastPathByteIdentical reconciles many random key pairs (varying
// mismatch counts and salts) and demands that the production encoder,
// backprojection and full correction agree bit for bit with the scalar
// oracles above.
func TestAEFastPathByteIdentical(t *testing.T) {
	ae := TrainAE(AEConfig{KeyBits: 64, CodeDim: 32, DecoderUnits: 16, MaxMismatch: 0.15}, 3, 60, rng.New(42))
	src := rng.New(7)
	for trial := 0; trial < 40; trial++ {
		kb := src.Bits(64)
		ka := make([]byte, 64)
		copy(ka, kb)
		for f := 0; f < trial%9; f++ {
			ka[src.Intn(64)] ^= 1
		}
		bf := NewBloomFilter(64, []byte(fmt.Sprintf("salt-%d", trial%5)))
		bkA, bkB := bf.Transform(ka), bf.Transform(kb)

		yBob := ae.EncodeRaw(bkB)
		if !sameFloats(yBob, scalarEncode(ae, bkB)) {
			t.Fatalf("trial %d: encode differs from the scalar loop", trial)
		}
		yAlice := ae.encode(bkA)
		h := make([]float64, len(yBob))
		for i := range h {
			h[i] = yBob[i] - yAlice[i]
		}
		if !sameFloats(ae.backproject(h), columnBackproject(ae, h)) {
			t.Fatalf("trial %d: backprojection differs from the column-strided loop", trial)
		}
		if got, want := ae.correct(bkA, yBob), scalarCorrect(ae, bkA, yBob); string(got) != string(want) {
			t.Fatalf("trial %d: corrected keys differ from the scalar oracle", trial)
		}
	}
}

func TestBloomForMatchesFresh(t *testing.T) {
	for _, n := range []int{16, 64, 128} {
		for s := 0; s < 5; s++ {
			salt := []byte(fmt.Sprintf("s%d", s))
			cached := bloomFor(n, salt)
			fresh := NewBloomFilter(n, salt)
			bits := rng.New(int64(n + s)).Bits(n)
			a := cached.Transform(bits)
			b := fresh.Transform(bits)
			if string(a) != string(b) {
				t.Fatalf("n=%d salt=%s: cached transform differs from fresh", n, salt)
			}
			if string(cached.Inverse(a)) != string(bits) {
				t.Fatalf("n=%d salt=%s: cached inverse broken", n, salt)
			}
			// Second lookup must return the identical shared instance.
			if bloomFor(n, salt) != cached {
				t.Fatalf("n=%d salt=%s: cache did not return the shared filter", n, salt)
			}
		}
	}
}

// TestBloomCacheEvictionChurn overflows the bloom cache and checks
// evicted keys are rebuilt correctly (purity means eviction can only
// cost time, never correctness).
func TestBloomCacheEvictionChurn(t *testing.T) {
	bits := rng.New(3).Bits(32)
	want := NewBloomFilter(32, []byte("churn-0")).Transform(bits)
	first := bloomFor(32, []byte("churn-0"))
	for i := 1; i < 300; i++ { // capacity is 128
		bloomFor(32, []byte(fmt.Sprintf("churn-%d", i)))
	}
	rebuilt := bloomFor(32, []byte("churn-0"))
	if rebuilt == first {
		t.Fatal("churn did not evict the first filter")
	}
	if got := rebuilt.Transform(bits); string(got) != string(want) {
		t.Fatal("rebuilt-after-eviction filter differs from fresh")
	}
}

func TestSensingMatrixCachedMatches(t *testing.T) {
	fresh := sensingMatrix(16, 64, 99)
	cached := sensingMatrixCached(16, 64, 99)
	if len(fresh) != len(cached) {
		t.Fatal("length mismatch")
	}
	for i := range fresh {
		if math.Float64bits(fresh[i]) != math.Float64bits(cached[i]) {
			t.Fatalf("element %d differs", i)
		}
	}
}

func TestCascadePermCachedMatches(t *testing.T) {
	for pass := 0; pass < 4; pass++ {
		fresh := cascadePerm([]byte("sess"), pass, 128)
		cached := cascadePermCached([]byte("sess"), pass, 128)
		if len(fresh) != len(cached) {
			t.Fatal("length mismatch")
		}
		for i := range fresh {
			if fresh[i] != cached[i] {
				t.Fatalf("pass %d element %d differs", pass, i)
			}
		}
	}
}
