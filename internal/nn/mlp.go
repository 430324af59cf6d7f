package nn

import (
	"fmt"

	"repro/internal/mathx"
	"repro/internal/rng"
)

// MLP is a stack of dense layers, used for the autoencoder reconciler's
// shared per-position decoder. It runs a whole batch of rows positions
// one layer at a time, feature-major: a layer's input is In×rows and its
// output Out×rows, each feature's values over the positions contiguous.
// Every output unit is then one bias-seeded column-major product with
// the positions in the kernel's vector lanes, and every element still
// takes its terms in ascending input order, byte-identical to running
// each position through the per-sample layer loops.
type MLP struct {
	layers []*Dense

	xs   []float64   // last Forward's input (caller-owned, not copied)
	rows int         // last Forward's row count
	acts [][]float64 // per-layer outputs of the last Forward
	ds   [][]float64 // per-layer output gradients (Backward scratch)
	col  []float64   // one gathered column of a weight matrix (Backward scratch)
}

// MLPSpec describes one MLP layer.
type MLPSpec struct {
	Out int
	Act Activation
}

// NewMLP builds an MLP taking in inputs through the given layer specs.
func NewMLP(name string, in int, specs []MLPSpec, src *rng.Source) *MLP {
	m := &MLP{}
	prev := in
	for i, s := range specs {
		m.layers = append(m.layers, NewDense(denseName(name, i), prev, s.Out, s.Act, src))
		prev = s.Out
	}
	m.acts = make([][]float64, len(m.layers))
	m.ds = make([][]float64, len(m.layers))
	return m
}

func denseName(name string, i int) string {
	return name + "." + string(rune('0'+i))
}

// Params returns all learnable tensors.
func (m *MLP) Params() Params {
	var ps Params
	for _, l := range m.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// OutDim returns the width of the final layer.
func (m *MLP) OutDim() int { return m.layers[len(m.layers)-1].Out }

// Forward runs rows positions (xs flat In×rows, feature-major: feature i
// of position n at xs[i*rows+n]) through the stack and returns the final
// activations, flat OutDim×rows in the same layout. Each output unit o
// seeds its row at b[o] and adds W[o][i]·x_i for i ascending, so every
// value is byte-identical to the per-sample loop `sum := b[o]; for i {
// sum += W[o][i]·x[i] }`. The returned slice is scratch owned by m,
// overwritten by the next Forward: callers that keep it must copy it.
// xs must stay unchanged until Backward. Not safe for concurrent use on
// one instance.
func (m *MLP) Forward(xs []float64, rows int) []float64 {
	if len(m.layers) == 0 {
		panic("nn: Forward on empty MLP")
	}
	if len(xs) != rows*m.layers[0].In {
		panic(fmt.Sprintf("nn: MLP wants %d×%d inputs, got %d", m.layers[0].In, rows, len(xs)))
	}
	m.xs, m.rows = xs, rows
	cur := xs
	for li, l := range m.layers {
		y := grow(&m.acts[li], l.Out*rows)
		// Every row is seeded before the first product reads one back:
		// a vector load right behind the scalar stores it reads would
		// wait for them to reach the cache.
		for o, b := range l.b.W {
			yo := y[o*rows : o*rows+rows]
			for n := range yo {
				yo[n] = b
			}
		}
		for o := range l.b.W {
			mathx.AddMatVecColMajor(cur, rows, l.In, l.w.W[o*l.In:o*l.In+l.In], y[o*rows:o*rows+rows])
		}
		l.Act.applyAll(y)
		cur = y
	}
	return cur
}

// Backward consumes dL/dy (flat OutDim×rows) for the last Forward,
// overwriting it, and accumulates every layer's gradients, each element
// receiving its per-position terms in ascending position order. The
// input gradient of the first layer is not computed.
func (m *MLP) Backward(dy []float64) {
	for li := len(m.layers) - 1; li >= 0; li-- {
		l := m.layers[li]
		in := m.xs
		var dx []float64
		if li > 0 {
			in = m.acts[li-1]
			dx = grow(&m.ds[li-1], l.In*m.rows)
		}
		m.backwardLayer(l, in, m.acts[li], dy, dx)
		dy = dx
	}
}

// backwardLayer is one layer's backward pass in the feature-major
// layout: x is the layer's input (In×rows), y its output and dy
// dL/dy (both Out×rows). dy is overwritten with dL/d(pre-activation).
// Bias and weight gradients add their terms in ascending position
// order onto the accumulated value; when dx is non-nil it receives
// dL/dx (In×rows), each element the sum over output units o ascending
// from a zero seed.
func (m *MLP) backwardLayer(l *Dense, x, y, dy, dx []float64) {
	rows, in := m.rows, l.In
	l.Act.scaleByDeriv(dy, y[:l.Out*rows])
	for o := 0; o < l.Out; o++ {
		dz := dy[o*rows : o*rows+rows]
		gb := l.b.G[o]
		for _, v := range dz {
			gb += v
		}
		l.b.G[o] = gb
		// Four weights share one pass over the positions, four
		// independent sums each taking its terms in ascending n.
		gw := l.w.G[o*in : o*in+in]
		i := 0
		for ; i+4 <= in; i += 4 {
			x0 := x[i*rows:][:len(dz)]
			x1 := x[(i+1)*rows:][:len(dz)]
			x2 := x[(i+2)*rows:][:len(dz)]
			x3 := x[(i+3)*rows:][:len(dz)]
			g0, g1, g2, g3 := gw[i], gw[i+1], gw[i+2], gw[i+3]
			for n, d := range dz {
				g0 += d * x0[n]
				g1 += d * x1[n]
				g2 += d * x2[n]
				g3 += d * x3[n]
			}
			gw[i], gw[i+1], gw[i+2], gw[i+3] = g0, g1, g2, g3
		}
		for ; i < in; i++ {
			g := gw[i]
			for n, xv := range x[i*rows:][:len(dz)] {
				g += dz[n] * xv
			}
			gw[i] = g
		}
	}
	if dx == nil {
		return
	}
	col := grow(&m.col, l.Out)
	for i := 0; i < in; i++ {
		for o := range col {
			col[o] = l.w.W[o*in+i]
		}
		dxi := dx[i*rows : i*rows+rows]
		clear(dxi)
		mathx.AddMatVecColMajor(dy, rows, l.Out, col, dxi)
	}
}
