package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// The per-step training implementation the batched kernels replaced:
// one vector–matrix gate per timestep with [][]float64 caches, one
// Dense view per timestep for the shared heads, and per-sample dense
// forward/backward. It runs on the production models' own parameters,
// so a copy of a model trained by this code and one trained by the
// production kernels must agree to the bit. It lives here only as the
// oracle for that claim.

type refLSTM struct {
	l          *LSTM
	xs         [][]float64
	i, f, o, g [][]float64
	c, h, tc   [][]float64 // cell, hidden, tanh(cell)
}

func (rl *refLSTM) gate(w, u, b *Param, x, h []float64, out []float64, act Activation) {
	l := rl.l
	hd := l.Hidden
	for r := 0; r < hd; r++ {
		sum := b.W[r]
		wr := w.W[r*l.InDim : (r+1)*l.InDim]
		for c, xv := range x {
			sum += wr[c] * xv
		}
		ur := u.W[r*hd : (r+1)*hd]
		for c, hv := range h {
			sum += ur[c] * hv
		}
		out[r] = act.Apply(sum)
	}
}

func (rl *refLSTM) forward(xs [][]float64) [][]float64 {
	l := rl.l
	T := len(xs)
	hd := l.Hidden
	rl.xs = xs
	alloc := func(dst *[][]float64) {
		*dst = make([][]float64, T)
		for t := range *dst {
			(*dst)[t] = make([]float64, hd)
		}
	}
	alloc(&rl.i)
	alloc(&rl.f)
	alloc(&rl.o)
	alloc(&rl.g)
	alloc(&rl.c)
	alloc(&rl.h)
	alloc(&rl.tc)

	hPrev := make([]float64, hd)
	cPrev := make([]float64, hd)
	for t := 0; t < T; t++ {
		rl.gate(l.wi, l.ui, l.bi, xs[t], hPrev, rl.i[t], Sigmoid)
		rl.gate(l.wf, l.uf, l.bf, xs[t], hPrev, rl.f[t], Sigmoid)
		rl.gate(l.wo, l.uo, l.bo, xs[t], hPrev, rl.o[t], Sigmoid)
		rl.gate(l.wg, l.ug, l.bg, xs[t], hPrev, rl.g[t], Tanh)
		for r := 0; r < hd; r++ {
			rl.c[t][r] = rl.f[t][r]*cPrev[r] + rl.i[t][r]*rl.g[t][r]
			rl.tc[t][r] = Tanh.Apply(rl.c[t][r])
			rl.h[t][r] = rl.o[t][r] * rl.tc[t][r]
		}
		hPrev = rl.h[t]
		cPrev = rl.c[t]
	}
	return rl.h
}

func (rl *refLSTM) backward(dhs [][]float64) [][]float64 {
	l := rl.l
	T := len(rl.xs)
	hd := l.Hidden
	dxs := make([][]float64, T)
	dhNext := make([]float64, hd)
	dcNext := make([]float64, hd)
	di := make([]float64, hd)
	df := make([]float64, hd)
	do := make([]float64, hd)
	dg := make([]float64, hd)

	for t := T - 1; t >= 0; t-- {
		var hPrev, cPrev []float64
		if t > 0 {
			hPrev, cPrev = rl.h[t-1], rl.c[t-1]
		} else {
			hPrev, cPrev = make([]float64, hd), make([]float64, hd)
		}
		for r := 0; r < hd; r++ {
			dh := dhs[t][r] + dhNext[r]
			do[r] = dh * rl.tc[t][r] * Sigmoid.DerivFromOutput(rl.o[t][r])
			dct := dh*rl.o[t][r]*Tanh.DerivFromOutput(rl.tc[t][r]) + dcNext[r]
			df[r] = dct * cPrev[r] * Sigmoid.DerivFromOutput(rl.f[t][r])
			di[r] = dct * rl.g[t][r] * Sigmoid.DerivFromOutput(rl.i[t][r])
			dg[r] = dct * rl.i[t][r] * Tanh.DerivFromOutput(rl.g[t][r])
			dcNext[r] = dct * rl.f[t][r]
		}
		dx := make([]float64, l.InDim)
		for r := 0; r < hd; r++ {
			dhNext[r] = 0
		}
		accum := func(dgate []float64, w, u, b *Param) {
			for r := 0; r < hd; r++ {
				d := dgate[r]
				if d == 0 {
					continue
				}
				b.G[r] += d
				wr := w.W[r*l.InDim : (r+1)*l.InDim]
				gw := w.G[r*l.InDim : (r+1)*l.InDim]
				for c := 0; c < l.InDim; c++ {
					gw[c] += d * rl.xs[t][c]
					dx[c] += d * wr[c]
				}
				ur := u.W[r*hd : (r+1)*hd]
				gu := u.G[r*hd : (r+1)*hd]
				for c := 0; c < hd; c++ {
					gu[c] += d * hPrev[c]
					dhNext[c] += d * ur[c]
				}
			}
		}
		accum(di, l.wi, l.ui, l.bi)
		accum(df, l.wf, l.uf, l.bf)
		accum(do, l.wo, l.uo, l.bo)
		accum(dg, l.wg, l.ug, l.bg)
		dxs[t] = dx
	}
	return dxs
}

type refBiLSTM struct {
	b        *BiLSTM
	fwd, bwd refLSTM
}

func newRefBiLSTM(b *BiLSTM) *refBiLSTM {
	return &refBiLSTM{b: b, fwd: refLSTM{l: b.fwd}, bwd: refLSTM{l: b.bwd}}
}

func (rb *refBiLSTM) forward(xs [][]float64) [][]float64 {
	T := len(xs)
	hf := rb.fwd.forward(xs)
	rev := make([][]float64, T)
	for t := 0; t < T; t++ {
		rev[t] = xs[T-1-t]
	}
	hbRev := rb.bwd.forward(rev)
	out := make([][]float64, T)
	for t := 0; t < T; t++ {
		o := make([]float64, 2*rb.b.Hidden)
		copy(o[:rb.b.Hidden], hf[t])
		copy(o[rb.b.Hidden:], hbRev[T-1-t])
		out[t] = o
	}
	return out
}

func (rb *refBiLSTM) backward(douts [][]float64) [][]float64 {
	T := len(douts)
	hd := rb.b.Hidden
	dhf := make([][]float64, T)
	dhbRev := make([][]float64, T)
	for t := 0; t < T; t++ {
		dhf[t] = douts[t][:hd]
		dhbRev[T-1-t] = douts[t][hd:]
	}
	dxf := rb.fwd.backward(dhf)
	dxbRev := rb.bwd.backward(dhbRev)
	dxs := make([][]float64, T)
	for t := 0; t < T; t++ {
		dx := make([]float64, rb.b.InDim)
		for i := range dx {
			dx[i] = dxf[t][i] + dxbRev[T-1-t][i]
		}
		dxs[t] = dx
	}
	return dxs
}

// refDense is one per-sample view of a Dense layer with its own forward
// cache, so tied per-timestep views can each hold a pending backward.
type refDense struct {
	d            *Dense
	lastX, lastY []float64
}

func (rd *refDense) forward(x []float64) []float64 {
	d := rd.d
	y := make([]float64, d.Out)
	for o := 0; o < d.Out; o++ {
		sum := d.b.W[o]
		row := d.w.W[o*d.In : (o+1)*d.In]
		for i, xi := range x {
			sum += row[i] * xi
		}
		y[o] = d.Act.Apply(sum)
	}
	rd.lastX = append(rd.lastX[:0], x...)
	rd.lastY = append(rd.lastY[:0], y...)
	return y
}

func (rd *refDense) backward(dy []float64) []float64 {
	d := rd.d
	dx := make([]float64, d.In)
	for o := 0; o < d.Out; o++ {
		dz := dy[o] * d.Act.DerivFromOutput(rd.lastY[o])
		d.b.G[o] += dz
		row := d.w.W[o*d.In : (o+1)*d.In]
		grow := d.w.G[o*d.In : (o+1)*d.In]
		for i := 0; i < d.In; i++ {
			grow[i] += dz * rd.lastX[i]
			dx[i] += dz * row[i]
		}
	}
	return dx
}

// refMLP runs one sample at a time through per-layer refDense views.
type refMLP struct{ layers []*refDense }

func newRefMLP(m *MLP) *refMLP {
	r := &refMLP{}
	for _, l := range m.layers {
		r.layers = append(r.layers, &refDense{d: l})
	}
	return r
}

func (rm *refMLP) forward(x []float64) []float64 {
	for _, l := range rm.layers {
		x = l.forward(x)
	}
	return x
}

func (rm *refMLP) backward(dy []float64) []float64 {
	for i := len(rm.layers) - 1; i >= 0; i-- {
		dy = rm.layers[i].backward(dy)
	}
	return dy
}

// refPredictor is the per-step predictor: a refDense view per timestep
// for each shared head.
type refPredictor struct {
	p           *Predictor
	bi          *refBiLSTM
	pred, quant []*refDense
}

func newRefPredictor(p *Predictor) *refPredictor {
	r := &refPredictor{p: p, bi: newRefBiLSTM(p.bilstm)}
	for t := 0; t < p.Cfg.SeqLen; t++ {
		r.pred = append(r.pred, &refDense{d: p.fcPred})
		r.quant = append(r.quant, &refDense{d: p.fcQuant})
	}
	return r
}

func (r *refPredictor) forward(aliceSeq []float64) (yHat, zHat []float64) {
	p := r.p
	xs := make([][]float64, len(aliceSeq))
	for t, v := range aliceSeq {
		xs[t] = []float64{v}
	}
	hs := r.bi.forward(xs)
	yHat = make([]float64, p.Cfg.SeqLen)
	zHat = make([]float64, 0, p.Cfg.Bits)
	for t, h := range hs {
		yHat[t] = r.pred[t].forward(h)[0]
		zHat = append(zHat, r.quant[t].forward(h)...)
	}
	return yHat, zHat
}

func (r *refPredictor) trainStep(aliceSeq, y []float64, z []byte, mask []bool) float64 {
	p := r.p
	yHat, zHat := r.forward(aliceSeq)
	loss, dyHat, dzHat := refJointLoss(p.Cfg.Theta, y, yHat, z, zHat, mask)
	douts := make([][]float64, p.Cfg.SeqLen)
	for t := 0; t < p.Cfg.SeqLen; t++ {
		dh := r.pred[t].backward(dyHat[t : t+1])
		dhq := r.quant[t].backward(dzHat[t*p.perStep : (t+1)*p.perStep])
		for i := range dh {
			dh[i] += dhq[i]
		}
		douts[t] = dh
	}
	r.bi.backward(douts)
	return loss
}

// refMSE returns the mean squared error between target y and prediction yHat,
// plus the gradient dL/dyHat.
func refMSE(y, yHat []float64) (float64, []float64) {
	n := float64(len(y))
	grad := make([]float64, len(y))
	var loss float64
	for i := range y {
		d := yHat[i] - y[i]
		loss += d * d
		grad[i] = 2 * d / n
	}
	return loss / n, grad
}

// refBCE returns the summed binary cross entropy between the 0/1 target bits
// z and the sigmoid outputs zHat (as in the paper's Eq. 5, which sums
// rather than averages), plus the gradient dL/dzHat. Predictions are
// clamped away from {0, 1} for numerical stability.
func refBCE(z []byte, zHat []float64) (float64, []float64) {
	const eps = 1e-9
	grad := make([]float64, len(zHat))
	var loss float64
	for i := range zHat {
		p := zHat[i]
		if p < eps {
			p = eps
		}
		if p > 1-eps {
			p = 1 - eps
		}
		if z[i] == 1 {
			loss += -math.Log(p)
			grad[i] = -1 / p
		} else {
			loss += -math.Log(1 - p)
			grad[i] = 1 / (1 - p)
		}
	}
	return loss, grad
}

// refJointLoss is the joint loss as MSE and BCE compose it, masked
// positions recomputed afterwards.
func refJointLoss(theta float64, y, yHat []float64, z []byte, zHat []float64, mask []bool) (loss float64, dyHat, dzHat []float64) {
	mse, dy := refMSE(y, yHat)
	bce, dz := refBCE(z, zHat)
	if mask != nil {
		bce = 0
		const eps = 1e-9
		for i := range zHat {
			if !mask[i] {
				dz[i] = 0
				continue
			}
			p := zHat[i]
			if p < eps {
				p = eps
			}
			if p > 1-eps {
				p = 1 - eps
			}
			if z[i] == 1 {
				bce += -math.Log(p)
			} else {
				bce += -math.Log(1 - p)
			}
		}
	}
	loss = theta*mse + (1-theta)*bce
	for i := range dy {
		dy[i] *= theta
	}
	for i := range dz {
		dz[i] *= 1 - theta
	}
	return loss, dy, dz
}

// refFit is Trainer.Fit with the per-step train step.
func refFit(tr *Trainer, samples []TrainSample, epochs int) []float64 {
	r := newRefPredictor(tr.Model)
	params := tr.Model.Params()
	var losses []float64
	for e := 0; e < epochs; e++ {
		idx := tr.src.Perm(len(samples))
		var total float64
		inBatch := 0
		for _, id := range idx {
			s := samples[id]
			total += r.trainStep(s.Alice, s.Bob, s.Bits, s.Mask)
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
		losses = append(losses, total/float64(len(samples)))
	}
	return losses
}

// cloneInto copies src's weights (not gradients or moments) into dst.
func cloneInto(t *testing.T, dst, src Params) {
	t.Helper()
	if len(dst) != len(src) {
		t.Fatalf("param count %d != %d", len(dst), len(src))
	}
	for i := range src {
		copy(dst[i].W, src[i].W)
	}
}

// sameTensors compares every W and G element of two parameter lists by
// their float64 bits.
func sameTensors(t *testing.T, what string, got, want Params) {
	t.Helper()
	for i := range want {
		for _, pair := range [][2][]float64{{got[i].W, want[i].W}, {got[i].G, want[i].G}} {
			for k := range pair[1] {
				if math.Float64bits(pair[0][k]) != math.Float64bits(pair[1][k]) {
					t.Fatalf("%s: %s[%d]: %.17g != reference %.17g", what, want[i].Name, k, pair[0][k], pair[1][k])
				}
			}
		}
	}
}

func randFlat(src *rng.Source, n int, std float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = src.Normal(0, std)
	}
	return out
}

func rows(flat []float64, T, w int) [][]float64 {
	out := make([][]float64, T)
	for t := range out {
		out[t] = flat[t*w : t*w+w]
	}
	return out
}

// TestLSTMBackwardBitIdentical runs one forward/backward of the batched
// LSTM and of the per-step reference on identical weights and compares
// every gradient element by its bits. The last step's output gradient
// is partly zero, which forces exactly-zero gate deltas through the
// reference's skip; widths and lengths that are not multiples of four
// reach the kernels' remainder loops.
func TestLSTMBackwardBitIdentical(t *testing.T) {
	for _, in := range []int{1, 3} {
		for _, hd := range []int{4, 5, 16, 32} {
			for _, T := range []int{7, 8, 32} {
				name := fmt.Sprintf("in%d/h%d/T%d", in, hd, T)
				src := rng.New(int64(1000*in + 10*hd + T))
				prod := NewLSTM("l", in, hd, src)
				ref := NewLSTM("l", in, hd, rng.New(1))
				cloneInto(t, ref.Params(), prod.Params())
				xs := randFlat(src, T*in, 1)
				dhs := randFlat(src, T*hd, 0.5)
				for r := 0; r < hd; r += 2 {
					dhs[(T-1)*hd+r] = 0
				}
				out := make([]float64, T*hd)
				prod.Forward(xs, T, out)
				prod.Backward(dhs)

				rl := &refLSTM{l: ref}
				refH := rl.forward(rows(xs, T, in))
				rl.backward(rows(dhs, T, hd))
				for ti := 0; ti < T; ti++ {
					sameBits(t, name+" h", out[ti*hd:(ti+1)*hd], refH[ti])
				}
				sameTensors(t, name, prod.Params(), ref.Params())
				if zeroDeltas(prod) == 0 {
					t.Fatalf("%s: no exactly-zero gate delta was exercised", name)
				}
			}
		}
	}
}

// zeroDeltas counts the exactly-zero gate deltas of the last Backward.
func zeroDeltas(l *LSTM) int {
	n := 0
	for _, d := range [][]float64{l.cache.di, l.cache.df, l.cache.do, l.cache.dg} {
		for _, v := range d {
			if v == 0 {
				n++
			}
		}
	}
	return n
}

func TestBiLSTMBackwardBitIdentical(t *testing.T) {
	for _, in := range []int{1, 3} {
		const hd, T = 16, 8
		src := rng.New(int64(77 + in))
		prod := NewBiLSTM("b", in, hd, src)
		ref := NewBiLSTM("b", in, hd, rng.New(1))
		cloneInto(t, ref.Params(), prod.Params())
		xs := randFlat(src, T*in, 1)
		douts := randFlat(src, T*2*hd, 0.5)
		got := prod.Forward(xs, T)
		prod.Backward(douts)

		rb := newRefBiLSTM(ref)
		want := rb.forward(rows(xs, T, in))
		rb.backward(rows(douts, T, 2*hd))
		for ti := 0; ti < T; ti++ {
			sameBits(t, "BiLSTM h", got[ti*2*hd:(ti+1)*2*hd], want[ti])
		}
		sameTensors(t, "BiLSTM", prod.Params(), ref.Params())
	}
}

// TestMLPBackwardBitIdentical trains one batch through the batched MLP
// and one sample at a time through the reference, then compares every
// gradient by its bits.
func TestMLPBackwardBitIdentical(t *testing.T) {
	src := rng.New(9)
	spec := []MLPSpec{{16, ReLU}, {16, ReLU}, {1, Sigmoid}}
	prod := NewMLP("m", 2, spec, src)
	ref := NewMLP("m", 2, spec, rng.New(1))
	cloneInto(t, ref.Params(), prod.Params())
	const n = 64
	xs := randFlat(src, n*2, 2)
	dy := randFlat(src, n, 1)
	want := append([]float64(nil), dy...)

	out := prod.Forward(featureMajor(xs, n, 2), n)
	rm := newRefMLP(ref)
	for r := 0; r < n; r++ {
		sameBits(t, "MLP out", out[r:r+1], rm.forward(xs[r*2:r*2+2]))
		rm.backward(want[r : r+1])
	}
	prod.Backward(dy)
	sameTensors(t, "MLP", prod.Params(), ref.Params())
}

func randomSample(src *rng.Source, cfg PredictorConfig, mask string) TrainSample {
	s := TrainSample{
		Alice: randFlat(src, cfg.SeqLen, 1),
		Bob:   randFlat(src, cfg.SeqLen, 1),
		Bits:  src.Bits(cfg.Bits),
	}
	switch mask {
	case "partial":
		s.Mask = make([]bool, cfg.Bits)
		for i := range s.Mask {
			s.Mask[i] = src.Bernoulli(0.6)
		}
	case "none-kept":
		s.Mask = make([]bool, cfg.Bits)
	}
	return s
}

var refConfigs = []PredictorConfig{
	{SeqLen: 8, Hidden: 4, Bits: 16, Theta: 0.9},
	{SeqLen: 8, Hidden: 16, Bits: 8, Theta: 0.7},
	{SeqLen: 32, Hidden: 16, Bits: 64, Theta: 0.9},
	{SeqLen: 32, Hidden: 32, Bits: 64, Theta: 0.9},
}

// TestTrainStepGradientsBitIdentical compares the loss and every
// gradient element after one TrainStep with the per-step reference's,
// with no mask, a partial mask and a mask that keeps nothing.
func TestTrainStepGradientsBitIdentical(t *testing.T) {
	for _, cfg := range refConfigs {
		for _, mask := range []string{"nil", "partial", "none-kept"} {
			name := fmt.Sprintf("T%d/h%d/bits%d/%s", cfg.SeqLen, cfg.Hidden, cfg.Bits, mask)
			src := rng.New(int64(cfg.SeqLen*cfg.Hidden + cfg.Bits))
			prod := NewPredictor(cfg, src)
			ref := NewPredictor(cfg, rng.New(1))
			cloneInto(t, ref.Params(), prod.Params())
			rp := newRefPredictor(ref)
			for step := 0; step < 3; step++ {
				s := randomSample(src, cfg, mask)
				got := prod.TrainStep(s.Alice, s.Bob, s.Bits, s.Mask)
				want := rp.trainStep(s.Alice, s.Bob, s.Bits, s.Mask)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s step %d: loss %.17g != reference %.17g", name, step, got, want)
				}
				sameTensors(t, name, prod.Params(), ref.Params())
			}
		}
	}
}

// TestFitWeightsBitIdentical trains two copies of a model for a few
// epochs, one through Trainer.Fit and one through the per-step
// reference with the same optimizer settings and shuffle stream, and
// demands identical losses and weights to the bit.
func TestFitWeightsBitIdentical(t *testing.T) {
	for _, cfg := range refConfigs {
		name := fmt.Sprintf("T%d/h%d/bits%d", cfg.SeqLen, cfg.Hidden, cfg.Bits)
		src := rng.New(int64(cfg.Hidden + 3))
		var samples []TrainSample
		for i := 0; i < 20; i++ {
			samples = append(samples, randomSample(src, cfg, []string{"nil", "partial"}[i%2]))
		}
		prod := NewPredictor(cfg, src.Derive("init"))
		ref := NewPredictor(cfg, rng.New(1))
		cloneInto(t, ref.Params(), prod.Params())
		trP := NewTrainer(prod, 0.01, rng.New(5))
		trR := NewTrainer(ref, 0.01, rng.New(5))
		trP.Opt.WeightDecay, trR.Opt.WeightDecay = 1e-4, 1e-4
		got := trP.Fit(samples, 3)
		want := refFit(trR, samples, 3)
		sameBits(t, name+" losses", got, want)
		sameTensors(t, name, prod.Params(), ref.Params())
	}
}
