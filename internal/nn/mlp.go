package nn

import (
	"fmt"

	"repro/internal/rng"
)

// MLP is a stack of dense layers, used for the autoencoder reconciler's
// shared per-position decoder. Forward and Backward run a whole batch of
// rows one layer at a time.
type MLP struct {
	layers []*Dense

	xs   []float64   // last Forward's input (caller-owned, not copied)
	rows int         // last Forward's row count
	acts [][]float64 // per-layer outputs of the last Forward
	ds   [][]float64 // per-layer output gradients (Backward scratch)
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

// Forward runs rows samples (xs flat rows×in of the first layer) through
// the stack, one GEMM per layer, and returns the final activations
// (flat rows×OutDim), byte-identical per row to running each sample
// through the per-sample layer loops. The returned slice is scratch
// owned by m, overwritten by the next Forward: callers that keep it must
// copy it. xs must stay unchanged until Backward. Not safe for
// concurrent use on one instance.
func (m *MLP) Forward(xs []float64, rows int) []float64 {
	if len(m.layers) == 0 {
		panic("nn: Forward on empty MLP")
	}
	if len(xs) != rows*m.layers[0].In {
		panic(fmt.Sprintf("nn: MLP wants %d×%d inputs, got %d", rows, m.layers[0].In, len(xs)))
	}
	m.xs, m.rows = xs, rows
	cur := xs
	for li, l := range m.layers {
		y := grow(&m.acts[li], rows*l.Out)
		l.forward(cur, rows, y)
		cur = y
	}
	return cur
}

// Backward consumes dL/dy (flat rows×OutDim) for the last Forward,
// overwriting it, and accumulates every layer's gradients, each element
// receiving its per-row terms in ascending row order. The input
// gradient of the first layer is not computed.
func (m *MLP) Backward(dy []float64) {
	rows := m.rows
	for li := len(m.layers) - 1; li >= 0; li-- {
		l := m.layers[li]
		in := m.xs
		var dx []float64
		if li > 0 {
			in = m.acts[li-1]
			dx = grow(&m.ds[li-1], rows*l.In)
		}
		l.backward(in, m.acts[li], dy, rows, dx)
		dy = dx
	}
}
