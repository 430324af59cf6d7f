package mathx

import "math"

// Kernels for one LSTM step: the gate activations over a slice and the
// recurrent matrix-vector product. Each is defined by the scalar loop
// beside it and returns that loop's value to the bit on every CPU.
//
// On amd64 CPUs with AVX2 and FMA both run four lanes at a time in
// Go assembly (lstm_amd64.s). The activation lanes perform math.Exp's
// own FMA-path operations (the path math.Exp takes on every CPU with
// AVX and FMA) and math.Tanh's three ranges, blended by mask; a batch
// holding an argument the lanes do not cover (NaN, ±Inf, a tanh
// argument of ±0, or a sigmoid whose exponential would go subnormal)
// is recomputed by the scalar loop. The recurrence keeps rows in lanes
// and adds each row's terms in ascending column order with a separate
// multiply and add. Everywhere else the scalar loops run alone.

// Sigmoid returns the logistic function 1/(1+e^-x), split on the sign
// of x so that the exponential never overflows.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}

// Sigmoids sets dst[i] = Sigmoid(src[i]) for every i < len(src). dst
// must be at least as long as src; it may be src itself, but must not
// overlap it otherwise.
func Sigmoids(dst, src []float64) {
	if len(dst) < len(src) {
		panic("mathx: Sigmoids dst shorter than src")
	}
	activate(false, dst[:len(src)], src)
}

// Tanhs sets dst[i] = math.Tanh(src[i]) for every i < len(src), under
// the same aliasing rule as Sigmoids.
func Tanhs(dst, src []float64) {
	if len(dst) < len(src) {
		panic("mathx: Tanhs dst shorter than src")
	}
	activate(true, dst[:len(src)], src)
}

// activateGeneric is the scalar loop Sigmoids (tanh false) and Tanhs
// (tanh true) are defined by.
func activateGeneric(tanh bool, dst, src []float64) {
	if tanh {
		for i, v := range src {
			dst[i] = math.Tanh(v)
		}
		return
	}
	for i, v := range src {
		dst[i] = Sigmoid(v)
	}
}

// AddMatVecColMajor accumulates the product of a rows×cols matrix
// stored column-major with x:
//
//	out[r] += Σ_{c ascending} wt[c*rows+r] * x[c]
//
// for r < rows, continuing whatever sum out[r] holds, with every term's
// product rounded before it is added — the recurrent half of an LSTM
// gate, whose reference loop appends the U·h terms after the
// bias-seeded W·x terms in the same accumulator. out must not alias wt
// or x.
func AddMatVecColMajor(wt []float64, rows, cols int, x, out []float64) {
	checkMatVec(wt, rows, cols, x, cols, out, rows)
	addMatVecColMajor(wt, rows, x[:cols], out[:rows])
}

// addColMajorRows is the scalar loop AddMatVecColMajor is defined by,
// over output rows [lo, len(out)) of a matrix with rows rows. Four
// columns share one pass over out, each element still taking its terms
// in ascending c.
func addColMajorRows(wt []float64, rows, lo int, x, out []float64) {
	out = out[lo:]
	c := 0
	for ; c+4 <= len(x); c += 4 {
		x0, x1, x2, x3 := x[c], x[c+1], x[c+2], x[c+3]
		w0 := wt[c*rows+lo:][:len(out)]
		w1 := wt[(c+1)*rows+lo:][:len(out)]
		w2 := wt[(c+2)*rows+lo:][:len(out)]
		w3 := wt[(c+3)*rows+lo:][:len(out)]
		for r, v := range out {
			v += w0[r] * x0
			v += w1[r] * x1
			v += w2[r] * x2
			v += w3[r] * x3
			out[r] = v
		}
	}
	for ; c < len(x); c++ {
		xv := x[c]
		for r, w := range wt[c*rows+lo:][:len(out)] {
			out[r] += w * xv
		}
	}
}
