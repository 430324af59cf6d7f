package nn

import (
	"repro/internal/mathx"
	"repro/internal/rng"
)

// Dense is a fully connected layer y = act(W·x + b), applied to a batch
// of rows at once: one bias-seeded GEMM per call, byte-identical per row
// to the scalar loop `sum := b[o]; for i { sum += W[o][i]·x[i] }`. It
// keeps no per-call state; its callers (MLP and the predictor heads)
// hold the activations Backward needs.
type Dense struct {
	In, Out int
	Act     Activation

	w *Param // Out×In, row-major
	b *Param // Out
}

// NewDense creates a dense layer with Xavier-initialized weights.
func NewDense(name string, in, out int, act Activation, src *rng.Source) *Dense {
	d := &Dense{
		In:  in,
		Out: out,
		Act: act,
		w:   NewParam(name+".W", in*out),
		b:   NewParam(name+".b", out),
	}
	d.w.InitXavier(in, out, src)
	return d
}

// Params returns the layer's learnable tensors.
func (d *Dense) Params() Params { return Params{d.w, d.b} }

// forward writes act(W·x + b) for rows inputs (x flat rows×In) into y
// (flat rows×Out). y must not alias x.
func (d *Dense) forward(x []float64, rows int, y []float64) {
	y = y[:rows*d.Out]
	mathx.MatMulTBias(x, rows, d.In, d.w.W, d.Out, d.b.W, y)
	switch d.Act {
	case Identity:
	case Sigmoid:
		mathx.Sigmoids(y, y)
	default:
		for i, v := range y {
			y[i] = d.Act.Apply(v)
		}
	}
}

// backward takes the rows inputs x and outputs y of a forward call and
// dL/dy, and accumulates the weight gradients, each element's per-row
// terms in ascending row order — the order of calling a per-sample
// backward row by row. dy is overwritten with dL/d(pre-activation).
// When dx is non-nil it receives dL/dx (flat rows×In).
func (d *Dense) backward(x, y, dy []float64, rows int, dx []float64) {
	in, out := d.In, d.Out
	for k, v := range y[:rows*out] {
		dy[k] *= d.Act.DerivFromOutput(v)
	}
	for o := 0; o < out; o++ {
		for n := 0; n < rows; n++ {
			d.b.G[o] += dy[n*out+o]
		}
		// Four rows share one pass over the gradient row.
		gw := d.w.G[o*in : o*in+in]
		n := 0
		for ; n+4 <= rows; n += 4 {
			z0, z1, z2, z3 := dy[n*out+o], dy[(n+1)*out+o], dy[(n+2)*out+o], dy[(n+3)*out+o]
			x0 := x[n*in:][:len(gw)]
			x1 := x[(n+1)*in:][:len(gw)]
			x2 := x[(n+2)*in:][:len(gw)]
			x3 := x[(n+3)*in:][:len(gw)]
			for i, g := range gw {
				g += z0 * x0[i]
				g += z1 * x1[i]
				g += z2 * x2[i]
				g += z3 * x3[i]
				gw[i] = g
			}
		}
		for ; n < rows; n++ {
			dz := dy[n*out+o]
			for i, xv := range x[n*in:][:len(gw)] {
				gw[i] += dz * xv
			}
		}
	}
	if dx == nil {
		return
	}
	for n := 0; n < rows; n++ {
		mathx.MatVecT(d.w.W, out, in, dy[n*out:n*out+out], dx[n*in:n*in+in])
	}
}
