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
