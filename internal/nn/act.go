package nn

import (
	"math"

	"repro/internal/mathx"
)

// Activation identifies a pointwise nonlinearity.
type Activation int

// Supported activations.
const (
	Identity Activation = iota + 1
	Sigmoid
	Tanh
	ReLU
)

// Apply evaluates the activation at x.
func (a Activation) Apply(x float64) float64 {
	switch a {
	case Sigmoid:
		return mathx.Sigmoid(x)
	case Tanh:
		return math.Tanh(x)
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	default:
		return x
	}
}

// applyAll sets every v in y to a.Apply(v): sigmoid through the vector
// kernel, ReLU as a direct loop. The ReLU loop selects between v's bits
// and +0's, which compiles without a branch: its sign pattern is as
// good as random, and a mispredicted branch per element costs more than
// the select.
func (a Activation) applyAll(y []float64) {
	switch a {
	case Identity:
	case Sigmoid:
		mathx.Sigmoids(y, y)
	case ReLU:
		for i, v := range y {
			b := math.Float64bits(v)
			if v < 0 {
				b = 0
			}
			y[i] = math.Float64frombits(b)
		}
	default:
		for i, v := range y {
			y[i] = a.Apply(v)
		}
	}
}

// scaleByDeriv multiplies every dy[k] by a.DerivFromOutput(y[k]), the
// ReLU's 0 or 1 chosen without a branch as in applyAll.
func (a Activation) scaleByDeriv(dy, y []float64) {
	if a != ReLU {
		for k, v := range y {
			dy[k] *= a.DerivFromOutput(v)
		}
		return
	}
	dy = dy[:len(y)]
	for k, v := range y {
		d := math.Float64bits(1)
		if !(v > 0) {
			d = 0
		}
		dy[k] *= math.Float64frombits(d)
	}
}

// DerivFromOutput returns the derivative dσ/dx expressed in terms of the
// activation *output* y (cheap for sigmoid/tanh, which is why layers cache
// outputs rather than pre-activations).
func (a Activation) DerivFromOutput(y float64) float64 {
	switch a {
	case Sigmoid:
		return y * (1 - y)
	case Tanh:
		return 1 - y*y
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	default:
		return 1
	}
}
