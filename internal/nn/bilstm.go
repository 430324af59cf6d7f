package nn

import (
	"fmt"

	"repro/internal/rng"
)

// BiLSTM runs one forward and one backward LSTM over the same sequence and
// concatenates their per-step hidden states, the layer the paper chooses
// because channel sequences carry information in both temporal directions.
type BiLSTM struct {
	InDim  int
	Hidden int // per direction; output width is 2·Hidden

	fwd *LSTM
	bwd *LSTM

	sc biScratch
}

// biScratch holds BiLSTM's reusable flat buffers.
type biScratch struct {
	rev      []float64 // reversed input for the backward direction
	hf, hb   []float64 // per-direction hidden states (T×Hidden)
	out      []float64 // concatenated output (T×2·Hidden)
	dhf, dhb []float64 // per-direction output gradients
}

// NewBiLSTM creates a bidirectional LSTM with hidden units per direction.
func NewBiLSTM(name string, inDim, hidden int, src *rng.Source) *BiLSTM {
	return &BiLSTM{
		InDim:  inDim,
		Hidden: hidden,
		fwd:    NewLSTM(name+".fwd", inDim, hidden, src),
		bwd:    NewLSTM(name+".bwd", inDim, hidden, src),
	}
}

// Params returns the learnable tensors of both directions.
func (b *BiLSTM) Params() Params {
	return append(b.fwd.Params(), b.bwd.Params()...)
}

// Forward runs xs (flat T×InDim) through both directions and returns
// the concatenated hidden states as a flat T×2·Hidden matrix. The
// returned slice is scratch owned by b, overwritten by the next Forward:
// callers that keep it must copy it. xs must stay unchanged until
// Backward. Not safe for concurrent use on one instance.
func (b *BiLSTM) Forward(xs []float64, T int) []float64 {
	in, hd := b.InDim, b.Hidden
	if len(xs) != T*in {
		panic(fmt.Sprintf("nn: BiLSTM wants %d×%d inputs, got %d", T, in, len(xs)))
	}
	s := &b.sc
	rev := grow(&s.rev, T*in)
	for t := 0; t < T; t++ {
		copy(rev[t*in:t*in+in], xs[(T-1-t)*in:(T-t)*in])
	}
	hf := grow(&s.hf, T*hd)
	hb := grow(&s.hb, T*hd)
	b.fwd.Forward(xs, T, hf)
	b.bwd.Forward(rev, T, hb)
	out := grow(&s.out, T*2*hd)
	for t := 0; t < T; t++ {
		o := out[t*2*hd:]
		copy(o[:hd], hf[t*hd:t*hd+hd])
		copy(o[hd:2*hd], hb[(T-1-t)*hd:(T-t)*hd])
	}
	return out
}

// Backward consumes dL/dout (flat T×2·Hidden) for the last Forward and
// accumulates both directions' gradients.
func (b *BiLSTM) Backward(douts []float64) {
	hd := b.Hidden
	T := len(douts) / (2 * hd)
	s := &b.sc
	dhf := grow(&s.dhf, T*hd)
	dhb := grow(&s.dhb, T*hd)
	for t := 0; t < T; t++ {
		d := douts[t*2*hd:]
		copy(dhf[t*hd:t*hd+hd], d[:hd])
		copy(dhb[(T-1-t)*hd:(T-t)*hd], d[hd:2*hd])
	}
	b.fwd.Backward(dhf)
	b.bwd.Backward(dhb)
}
