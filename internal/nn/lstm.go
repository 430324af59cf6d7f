package nn

import (
	"fmt"
	"math"

	"repro/internal/mathx"
	"repro/internal/rng"
)

// LSTM is a single-layer LSTM processing a whole sequence with full
// backpropagation through time. Gate layout follows the standard
// formulation:
//
//	i = σ(Wi·x + Ui·h + bi)   input gate
//	f = σ(Wf·x + Uf·h + bf)   forget gate
//	o = σ(Wo·x + Uo·h + bo)   output gate
//	g = tanh(Wg·x + Ug·h + bg) cell candidate
//	c = f∘c' + i∘g,  h = o∘tanh(c)
//
// Serving and training run the same forward loop over flat row-major
// matrices (T×InDim in, T×Hidden out). Its equivalence contract: every
// float64 op sequence matches the per-step reference gate
//
//	sum := b[r]; for c { sum += W[r][c]*x[c] }; for c { sum += U[r][c]*h[c] }; act(sum)
//
// The bias-seeded W·x prefix of all timesteps comes from one
// mathx.MatMulTBias per gate (same seed, same c order); the U·h terms
// are appended per step with mathx.AddMatVec (same accumulator, same c
// order); then the same activation. Storing the half-finished
// accumulator to memory between the two kernels does not change its
// value — Go float64 is strict IEEE 754 with no extended-precision
// carry-over. The zero initial state is NOT special-cased: the
// reference adds the U·0 terms (which can flip -0 to +0), so this loop
// adds them too. Backward keeps each gradient element's term order (and
// the reference's skip of exactly-zero gate deltas). infer_test.go and
// trainref_test.go pin all of this with math.Float64bits against the
// per-step reference.
type LSTM struct {
	InDim  int
	Hidden int

	// One Param per gate weight matrix/vector: W* are Hidden×InDim,
	// U* are Hidden×Hidden, b* are Hidden.
	wi, wf, wo, wg *Param
	ui, uf, uo, ug *Param
	bi, bf, bo, bg *Param

	cache lstmCache
}

// lstmCache holds the last Forward's activations for Backward plus the
// backward scratch, all flat T×Hidden and reused across calls.
type lstmCache struct {
	T          int
	xs, h      []float64 // last input and output (caller-owned, not copied)
	i, f, o, g []float64 // gate outputs (the projections, activated in place)
	c, tc      []float64 // cell and tanh(cell)
	zero       []float64 // the zero initial state h₀ = c₀
	di, df     []float64 // gate deltas, kept for the gradient pass
	do, dg     []float64
	dhNext     []float64
	dcNext     []float64
}

// NewLSTM creates an LSTM with Xavier-initialized weights and the
// customary forget-gate bias of 1 (helps gradient flow early in training).
func NewLSTM(name string, inDim, hidden int, src *rng.Source) *LSTM {
	l := &LSTM{InDim: inDim, Hidden: hidden}
	mk := func(suffix string, rows, cols int) *Param {
		p := NewParam(name+"."+suffix, rows*cols)
		p.InitXavier(cols, rows, src)
		return p
	}
	l.wi, l.wf, l.wo, l.wg = mk("Wi", hidden, inDim), mk("Wf", hidden, inDim), mk("Wo", hidden, inDim), mk("Wg", hidden, inDim)
	l.ui, l.uf, l.uo, l.ug = mk("Ui", hidden, hidden), mk("Uf", hidden, hidden), mk("Uo", hidden, hidden), mk("Ug", hidden, hidden)
	l.bi, l.bf, l.bo, l.bg = NewParam(name+".bi", hidden), NewParam(name+".bf", hidden), NewParam(name+".bo", hidden), NewParam(name+".bg", hidden)
	for i := range l.bf.W {
		l.bf.W[i] = 1
	}
	return l
}

// Params returns the learnable tensors.
func (l *LSTM) Params() Params {
	return Params{l.wi, l.wf, l.wo, l.wg, l.ui, l.uf, l.uo, l.ug, l.bi, l.bf, l.bo, l.bg}
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

// zeros returns *buf resized to n and cleared.
func zeros(buf *[]float64, n int) []float64 {
	z := grow(buf, n)
	clear(z)
	return z
}

// Forward runs the sequence xs (flat T×InDim) and writes the hidden state
// of every step into out (flat T×Hidden), recording what Backward needs.
// Backward reads xs and out, so both must stay unchanged until then.
// Scratch lives on the LSTM: not safe for concurrent use on one instance.
func (l *LSTM) Forward(xs []float64, T int, out []float64) {
	hd, in := l.Hidden, l.InDim
	if len(xs) != T*in {
		panic(fmt.Sprintf("nn: LSTM wants %d×%d inputs, got %d", T, in, len(xs)))
	}
	if len(out) < T*hd {
		panic("nn: LSTM output buffer too short")
	}
	cc := &l.cache
	cc.T, cc.xs, cc.h = T, xs, out[:T*hd]
	pi := grow(&cc.i, T*hd)
	pf := grow(&cc.f, T*hd)
	po := grow(&cc.o, T*hd)
	pg := grow(&cc.g, T*hd)
	cs := grow(&cc.c, T*hd)
	tcs := grow(&cc.tc, T*hd)
	// Batched bias-seeded input projections: p_g[t][r] = b_g[r] + Σ_c W_g[r][c]·x[t][c].
	mathx.MatMulTBias(xs, T, in, l.wi.W, hd, l.bi.W, pi)
	mathx.MatMulTBias(xs, T, in, l.wf.W, hd, l.bf.W, pf)
	mathx.MatMulTBias(xs, T, in, l.wo.W, hd, l.bo.W, po)
	mathx.MatMulTBias(xs, T, in, l.wg.W, hd, l.bg.W, pg)

	zero := zeros(&cc.zero, hd)
	hPrev, cPrev := zero, zero
	for t := 0; t < T; t++ {
		ri := pi[t*hd : t*hd+hd]
		rf := pf[t*hd : t*hd+hd]
		ro := po[t*hd : t*hd+hd]
		rg := pg[t*hd : t*hd+hd]
		// Append the recurrent U·h terms to the stored accumulators —
		// same op order as the reference gate — then activate in place.
		mathx.AddMatVec(l.ui.W, hd, hd, hPrev, ri)
		mathx.AddMatVec(l.uf.W, hd, hd, hPrev, rf)
		mathx.AddMatVec(l.uo.W, hd, hd, hPrev, ro)
		mathx.AddMatVec(l.ug.W, hd, hd, hPrev, rg)
		ct := cs[t*hd : t*hd+hd]
		tct := tcs[t*hd : t*hd+hd]
		ht := out[t*hd : t*hd+hd]
		for r := 0; r < hd; r++ {
			iv := sigmoid(ri[r])
			fv := sigmoid(rf[r])
			ov := sigmoid(ro[r])
			gv := math.Tanh(rg[r])
			ri[r], rf[r], ro[r], rg[r] = iv, fv, ov, gv
			cv := fv*cPrev[r] + iv*gv
			tv := math.Tanh(cv)
			ct[r], tct[r] = cv, tv
			ht[r] = ov * tv
		}
		hPrev, cPrev = ht, ct
	}
}

// Backward consumes dL/dh (flat T×Hidden) for the last Forward call and
// accumulates the parameter gradients. The LSTM is always the first
// layer, so dL/dx is not computed. Backward allocates nothing once the
// scratch has grown.
func (l *LSTM) Backward(dhs []float64) {
	cc := &l.cache
	T, hd := cc.T, l.Hidden
	if len(dhs) != T*hd {
		panic(fmt.Sprintf("nn: LSTM backward wants %d×%d grads, got %d", T, hd, len(dhs)))
	}
	di := grow(&cc.di, T*hd)
	df := grow(&cc.df, T*hd)
	do := grow(&cc.do, T*hd)
	dg := grow(&cc.dg, T*hd)
	dhNext := zeros(&cc.dhNext, hd)
	dcNext := zeros(&cc.dcNext, hd)
	zero := zeros(&cc.zero, hd)

	for t := T - 1; t >= 0; t-- {
		cPrev := zero
		if t > 0 {
			cPrev = cc.c[(t-1)*hd : t*hd]
		}
		k := t * hd
		it, ft, ot, gt := cc.i[k:k+hd], cc.f[k:k+hd], cc.o[k:k+hd], cc.g[k:k+hd]
		tct, dht := cc.tc[k:k+hd], dhs[k:k+hd]
		dit, dft, dot, dgt := di[k:k+hd], df[k:k+hd], do[k:k+hd], dg[k:k+hd]
		for r := 0; r < hd; r++ {
			dh := dht[r] + dhNext[r]
			dot[r] = dh * tct[r] * Sigmoid.DerivFromOutput(ot[r])
			dct := dh*ot[r]*Tanh.DerivFromOutput(tct[r]) + dcNext[r]
			dft[r] = dct * cPrev[r] * Sigmoid.DerivFromOutput(ft[r])
			dit[r] = dct * gt[r] * Sigmoid.DerivFromOutput(it[r])
			dgt[r] = dct * it[r] * Tanh.DerivFromOutput(gt[r])
			dcNext[r] = dct * ft[r]
		}
		// dL/dh_{t-1} = Σ_gate Uᵀ·d_gate, gates in i, f, o, g order and
		// rows ascending: the reference's accumulation order.
		clear(dhNext)
		addTransposed(l.ui.W, hd, dit, dhNext)
		addTransposed(l.uf.W, hd, dft, dhNext)
		addTransposed(l.uo.W, hd, dot, dhNext)
		addTransposed(l.ug.W, hd, dgt, dhNext)
	}
	// Every gradient element only ever receives its own timesteps' terms,
	// so accumulating them after the sweep — per element still in
	// descending t — is the reference's sum to the bit.
	l.accumulate(di, l.wi, l.ui, l.bi)
	l.accumulate(df, l.wf, l.uf, l.bf)
	l.accumulate(do, l.wo, l.uo, l.bo)
	l.accumulate(dg, l.wg, l.ug, l.bg)
}

// addTransposed accumulates out[c] += Σ_{r ascending} d[r]·w[r][c] for
// the len(d)×cols row-major w, skipping rows whose delta is exactly
// zero as the reference loop does. Four rows share one pass over out
// when none of their deltas is zero; each element still takes its
// terms in ascending r.
func addTransposed(w []float64, cols int, d, out []float64) {
	out = out[:cols]
	r := 0
	for ; r+4 <= len(d); r += 4 {
		d0, d1, d2, d3 := d[r], d[r+1], d[r+2], d[r+3]
		if d0 == 0 || d1 == 0 || d2 == 0 || d3 == 0 {
			addRows(w, d, r, r+4, out)
			continue
		}
		w0 := w[r*cols:][:len(out)]
		w1 := w[(r+1)*cols:][:len(out)]
		w2 := w[(r+2)*cols:][:len(out)]
		w3 := w[(r+3)*cols:][:len(out)]
		for c, v := range out {
			v += d0 * w0[c]
			v += d1 * w1[c]
			v += d2 * w2[c]
			v += d3 * w3[c]
			out[c] = v
		}
	}
	addRows(w, d, r, len(d), out)
}

// addRows is addTransposed one row at a time, for rows [lo, hi).
func addRows(w, d []float64, lo, hi int, out []float64) {
	cols := len(out)
	for r := lo; r < hi; r++ {
		dv := d[r]
		if dv == 0 {
			continue
		}
		row := w[r*cols:][:cols]
		for c, wv := range row {
			out[c] += dv * wv
		}
	}
}

// accumulate adds one gate's parameter gradients from its deltas d
// (flat T×Hidden), every element's terms in descending t. The recurrent
// gradient takes four timesteps per pass over its row when none of
// their deltas is zero.
func (l *LSTM) accumulate(d []float64, w, u, b *Param) {
	cc := &l.cache
	T, hd, in := cc.T, l.Hidden, l.InDim
	for r := 0; r < hd; r++ {
		gw := w.G[r*in : r*in+in]
		for t := T - 1; t >= 0; t-- {
			dv := d[t*hd+r]
			if dv == 0 {
				continue
			}
			b.G[r] += dv
			for c, xv := range cc.xs[t*in : t*in+in] {
				gw[c] += dv * xv
			}
		}
		gu := u.G[r*hd : r*hd+hd]
		t := T - 1
		for ; t >= 3; t -= 4 {
			d0, d1, d2, d3 := d[t*hd+r], d[(t-1)*hd+r], d[(t-2)*hd+r], d[(t-3)*hd+r]
			if d0 == 0 || d1 == 0 || d2 == 0 || d3 == 0 {
				l.addSteps(d, r, t, t-4, gu)
				continue
			}
			h0 := l.hBefore(t)[:len(gu)]
			h1 := l.hBefore(t - 1)[:len(gu)]
			h2 := l.hBefore(t - 2)[:len(gu)]
			h3 := l.hBefore(t - 3)[:len(gu)]
			for c, v := range gu {
				v += d0 * h0[c]
				v += d1 * h1[c]
				v += d2 * h2[c]
				v += d3 * h3[c]
				gu[c] = v
			}
		}
		l.addSteps(d, r, t, -1, gu)
	}
}

// addSteps adds row r's recurrent-gradient terms for timesteps hi down
// to lo+1 one at a time, skipping exactly-zero deltas.
func (l *LSTM) addSteps(d []float64, r, hi, lo int, gu []float64) {
	hd := l.Hidden
	for t := hi; t > lo; t-- {
		dv := d[t*hd+r]
		if dv == 0 {
			continue
		}
		for c, hv := range l.hBefore(t)[:len(gu)] {
			gu[c] += dv * hv
		}
	}
}

// hBefore returns the hidden state the step t read: h_{t-1} of the last
// Forward, or the zero initial state for t = 0.
func (l *LSTM) hBefore(t int) []float64 {
	if t == 0 {
		return l.cache.zero
	}
	hd := l.Hidden
	return l.cache.h[(t-1)*hd : t*hd]
}
