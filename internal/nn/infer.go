// Batched inference-only forward passes, the serving path.
//
// The training Forward methods walk the sequence step by step, calling
// a vector–matrix gate per timestep and recording every intermediate
// for BPTT. Inference needs none of that bookkeeping, and the input
// projections W·x of all four gates are independent of the recurrent
// state — so they batch into one matrix–matrix product per gate over
// ALL timesteps at once (TimeDistributed-style), as do both Dense
// heads over the full feature matrix.
//
// Equivalence contract: every float64 op sequence here matches the
// reference path exactly. The gate reference is
//
//	sum := b[r]; for c { sum += W[r][c]*x[c] }; for c { sum += U[r][c]*h[c] }; act(sum)
//
// and the batched path computes the bias-seeded W·x prefix with
// mathx.MatMulTBias (same seed, same c order), then appends the U·h
// terms with mathx.AddMatVec (same accumulator, same c order), then
// applies the same activation. Storing the half-finished accumulator
// to memory between the two kernels does not change its value — Go
// float64 is strict IEEE 754 with no extended-precision carry-over.
// The zero initial state is NOT special-cased: the reference adds the
// U·0 terms (which can flip -0 to +0), so the batched path adds them
// too. infer_test.go pins all of this with math.Float64bits.
package nn

import (
	"fmt"

	"repro/internal/mathx"
)

type lstmInferScratch struct {
	pi, pf, po, pg []float64 // T×Hidden bias-seeded input projections
	c              []float64 // running cell state
	h0             []float64 // zero initial hidden state
}

type biInferScratch struct {
	rev    []float64 // reversed input for the backward direction
	hf, hb []float64 // per-direction hidden states (T×Hidden)
}

type mlpInferScratch struct {
	a, b []float64 // ping-pong activation buffers between layers
}

// grow returns *buf resized to n, reusing its backing array when large
// enough. Contents are unspecified — callers overwrite.
func grow(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// ForwardInfer runs the sequence xs (flat T×InDim row-major) and writes
// the hidden state of every step into out (flat T×Hidden), byte-identical
// to Forward but without recording the training cache. Scratch buffers
// live on the LSTM, so like Forward this is not safe for concurrent use
// on one instance.
func (l *LSTM) ForwardInfer(xs []float64, T int, out []float64) {
	hd := l.Hidden
	if len(xs) != T*l.InDim {
		panic(fmt.Sprintf("nn: LSTM ForwardInfer wants %d×%d inputs, got %d", T, l.InDim, len(xs)))
	}
	if len(out) < T*hd {
		panic("nn: LSTM ForwardInfer output buffer too short")
	}
	s := &l.infer
	pi := grow(&s.pi, T*hd)
	pf := grow(&s.pf, T*hd)
	po := grow(&s.po, T*hd)
	pg := grow(&s.pg, T*hd)
	// Batched bias-seeded input projections: p_g[t][r] = b_g[r] + Σ_c W_g[r][c]·x[t][c].
	mathx.MatMulTBias(xs, T, l.InDim, l.wi.W, hd, l.bi.W, pi)
	mathx.MatMulTBias(xs, T, l.InDim, l.wf.W, hd, l.bf.W, pf)
	mathx.MatMulTBias(xs, T, l.InDim, l.wo.W, hd, l.bo.W, po)
	mathx.MatMulTBias(xs, T, l.InDim, l.wg.W, hd, l.bg.W, pg)

	cPrev := grow(&s.c, hd)
	hPrev := grow(&s.h0, hd)
	for r := 0; r < hd; r++ {
		cPrev[r] = 0
		hPrev[r] = 0
	}
	for t := 0; t < T; t++ {
		ri := pi[t*hd : t*hd+hd]
		rf := pf[t*hd : t*hd+hd]
		ro := po[t*hd : t*hd+hd]
		rg := pg[t*hd : t*hd+hd]
		// Append the recurrent U·h terms to the stored accumulators —
		// same op order as the reference gate — then activate.
		mathx.AddMatVec(l.ui.W, hd, hd, hPrev, ri)
		mathx.AddMatVec(l.uf.W, hd, hd, hPrev, rf)
		mathx.AddMatVec(l.uo.W, hd, hd, hPrev, ro)
		mathx.AddMatVec(l.ug.W, hd, hd, hPrev, rg)
		ht := out[t*hd : t*hd+hd]
		for r := 0; r < hd; r++ {
			iv := Sigmoid.Apply(ri[r])
			fv := Sigmoid.Apply(rf[r])
			ov := Sigmoid.Apply(ro[r])
			gv := Tanh.Apply(rg[r])
			cv := fv*cPrev[r] + iv*gv
			ht[r] = ov * Tanh.Apply(cv)
			cPrev[r] = cv
		}
		hPrev = ht
	}
}

// ForwardInfer returns the concatenated hidden states as a fresh flat
// T×2·Hidden matrix, byte-identical to Forward. The returned slice does
// not alias the scratch buffers, so callers may retain it.
func (b *BiLSTM) ForwardInfer(xs []float64, T int) []float64 {
	in, hd := b.InDim, b.Hidden
	if len(xs) != T*in {
		panic(fmt.Sprintf("nn: BiLSTM ForwardInfer wants %d×%d inputs, got %d", T, in, len(xs)))
	}
	s := &b.infer
	rev := grow(&s.rev, T*in)
	for t := 0; t < T; t++ {
		copy(rev[t*in:t*in+in], xs[(T-1-t)*in:(T-t)*in])
	}
	hf := grow(&s.hf, T*hd)
	hb := grow(&s.hb, T*hd)
	b.fwd.ForwardInfer(xs, T, hf)
	b.bwd.ForwardInfer(rev, T, hb)
	out := make([]float64, T*2*hd)
	for t := 0; t < T; t++ {
		o := out[t*2*hd:]
		copy(o[:hd], hf[t*hd:t*hd+hd])
		copy(o[hd:2*hd], hb[(T-1-t)*hd:(T-t)*hd])
	}
	return out
}

// ForwardInfer runs rows samples (xs flat rows×in of the first layer)
// through the stack in one GEMM per layer, writing the final
// activations (rows×OutDim) into out. Byte-identical to calling
// Forward per row, without touching the per-layer training caches.
// Scratch lives on the MLP; not safe for concurrent use on one
// instance (same contract as Forward). out must not alias xs.
func (m *MLP) ForwardInfer(xs []float64, rows int, out []float64) {
	if len(m.layers) == 0 {
		panic("nn: ForwardInfer on empty MLP")
	}
	if len(xs) != rows*m.layers[0].In {
		panic(fmt.Sprintf("nn: MLP ForwardInfer wants %d×%d inputs, got %d", rows, m.layers[0].In, len(xs)))
	}
	if len(out) < rows*m.OutDim() {
		panic("nn: MLP ForwardInfer output buffer too short")
	}
	s := &m.infer
	bufA, bufB := &s.a, &s.b
	cur := xs
	for li, l := range m.layers {
		var dst []float64
		if li == len(m.layers)-1 {
			dst = out[:rows*l.Out]
		} else {
			dst = grow(bufA, rows*l.Out)
			bufA, bufB = bufB, bufA
		}
		mathx.MatMulTBias(cur, rows, l.In, l.w.W, l.Out, l.b.W, dst)
		if l.Act != Identity {
			for i := range dst {
				dst[i] = l.Act.Apply(dst[i])
			}
		}
		cur = dst
	}
}

// ForwardBatched is the inference-only Forward: identical outputs (to
// the bit — see infer_test.go), no training caches, and both heads
// applied as one GEMM over all timesteps instead of SeqLen small
// vector products.
func (p *Predictor) ForwardBatched(aliceSeq []float64) (yHat, zHat []float64) {
	T := p.Cfg.SeqLen
	if len(aliceSeq) != T {
		panic(fmt.Sprintf("nn: Predictor wants %d-step sequences, got %d", T, len(aliceSeq)))
	}
	// InDim is 1, so the sequence itself is the flat T×1 input matrix.
	hs := p.bilstm.ForwardInfer(aliceSeq, T)
	feat := 2 * p.Cfg.Hidden

	pred := p.fcPred[0]
	yHat = make([]float64, T)
	mathx.MatMulTBias(hs, T, feat, pred.w.W, 1, pred.b.W, yHat)
	if pred.Act != Identity {
		for i := range yHat {
			yHat[i] = pred.Act.Apply(yHat[i])
		}
	}

	quant := p.fcQuant[0]
	zHat = make([]float64, T*p.perStep)
	mathx.MatMulTBias(hs, T, feat, quant.w.W, p.perStep, quant.b.W, zHat)
	for i := range zHat {
		zHat[i] = quant.Act.Apply(zHat[i])
	}
	return yHat, zHat
}
