// Package mathx provides the small numeric toolbox shared by the
// Vehicle-Key simulator: descriptive statistics, special functions used by
// the NIST randomness tests, a radix-2 FFT, and Gray-code helpers.
//
// Everything here is deterministic and allocation-conscious; hot paths
// (fading synthesis, NN training) call into this package tightly.
package mathx

import (
	"errors"
	"math"
)

// ErrEmptyInput reports that a statistic was requested over no samples.
var ErrEmptyInput = errors.New("mathx: empty input")

// Mean returns the arithmetic mean of xs. It returns 0 for empty input so
// that streaming callers can treat "no data" as a neutral level; use
// MeanChecked when emptiness is a programming error.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MeanChecked is Mean with an explicit error for empty input.
func MeanChecked(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmptyInput
	}
	return Mean(xs), nil
}

// Variance returns the population variance of xs (divides by n, not n-1),
// matching the convention used by the paper's channel statistics.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Pearson returns the Pearson correlation coefficient between a and b.
// The two series must have equal, nonzero length. A series with zero
// variance yields correlation 0 (the paper's plots treat a flat RSSI trace
// as uninformative rather than undefined).
func Pearson(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, errors.New("mathx: length mismatch")
	}
	if len(a) == 0 {
		return 0, ErrEmptyInput
	}
	ma, mb := Mean(a), Mean(b)
	var sab, saa, sbb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	if saa == 0 || sbb == 0 {
		return 0, nil
	}
	return sab / math.Sqrt(saa*sbb), nil
}

// MinMax returns the minimum and maximum of xs.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Quantiles returns the q-quantile boundaries of xs for q >= 2: the
// (1/q, 2/q, ..., (q-1)/q) points of the empirical distribution. The input
// is not modified. Linear interpolation between order statistics is used.
func Quantiles(xs []float64, q int) []float64 {
	if q < 2 || len(xs) == 0 {
		return nil
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sortFloats(sorted)
	out := make([]float64, q-1)
	n := float64(len(sorted))
	for i := 1; i < q; i++ {
		pos := float64(i) / float64(q) * (n - 1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		if hi >= len(sorted) {
			hi = len(sorted) - 1
		}
		frac := pos - float64(lo)
		out[i-1] = sorted[lo]*(1-frac) + sorted[hi]*frac
	}
	return out
}

// sortFloats is an in-place introsort-free quicksort adequate for the
// trace sizes used here (stdlib sort would also do; this avoids the
// interface overhead on hot quantization paths).
func sortFloats(a []float64) {
	if len(a) < 12 {
		for i := 1; i < len(a); i++ {
			for j := i; j > 0 && a[j] < a[j-1]; j-- {
				a[j], a[j-1] = a[j-1], a[j]
			}
		}
		return
	}
	p := medianOfThree(a[0], a[len(a)/2], a[len(a)-1])
	i, j := 0, len(a)-1
	for i <= j {
		for a[i] < p {
			i++
		}
		for a[j] > p {
			j--
		}
		if i <= j {
			a[i], a[j] = a[j], a[i]
			i++
			j--
		}
	}
	sortFloats(a[:j+1])
	sortFloats(a[i:])
}

func medianOfThree(a, b, c float64) float64 {
	switch {
	case (a <= b && b <= c) || (c <= b && b <= a):
		return b
	case (b <= a && a <= c) || (c <= a && a <= b):
		return a
	}
	return c
}

// Normalize rescales xs in place to zero mean and unit standard deviation
// and returns the original mean and std so callers can invert the
// transform. A zero-variance input is left centred at 0 with std reported
// as 1 to keep downstream math finite.
func Normalize(xs []float64) (mean, std float64) {
	mean = Mean(xs)
	std = Std(xs)
	if std == 0 {
		std = 1
	}
	for i := range xs {
		xs[i] = (xs[i] - mean) / std
	}
	return mean, std
}

// Denormalize inverts Normalize given the recorded mean and std.
func Denormalize(xs []float64, mean, std float64) {
	for i := range xs {
		xs[i] = xs[i]*std + mean
	}
}

// Agreement returns the fraction of equal positions in two bit slices,
// the paper's "key agreement rate" for one pair; empty or
// unequal-length slices agree nowhere.
func Agreement(a, b []byte) float64 {
	if len(a) == 0 || len(a) != len(b) {
		return 0
	}
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	return float64(same) / float64(len(a))
}
