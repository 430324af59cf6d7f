package mathx

import "math"

// Igamc computes the complemented incomplete gamma function Q(a, x) =
// Γ(a, x)/Γ(a), following the continued-fraction / power-series split used
// by Cephes (and by the NIST SP 800-22 reference implementation, which the
// randomness tests in internal/nist mirror).
//
// Valid for a > 0, x >= 0. Out-of-domain inputs return NaN.
func Igamc(a, x float64) float64 {
	switch {
	case a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN()
	case x == 0:
		return 1
	case x < a+1:
		return 1 - igamSeries(a, x)
	}
	return igamcCF(a, x)
}

// Igam computes the regularized lower incomplete gamma function
// P(a, x) = γ(a, x)/Γ(a) = 1 − Igamc(a, x).
func Igam(a, x float64) float64 {
	switch {
	case a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN()
	case x == 0:
		return 0
	case x < a+1:
		return igamSeries(a, x)
	}
	return 1 - igamcCF(a, x)
}

const (
	igamEps  = 1e-15
	igamBig  = 1e300
	igamTiny = 1e-300
)

// igamSeries evaluates P(a,x) by its power series, accurate for x < a+1.
func igamSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ax := a*math.Log(x) - x - lg
	if ax < -700 {
		return 0
	}
	c := 1.0 / a
	sum := c
	an := a
	for i := 0; i < 1000; i++ {
		an++
		c *= x / an
		sum += c
		if c < sum*igamEps {
			break
		}
	}
	return sum * math.Exp(ax)
}

// igamcCF evaluates Q(a,x) by the modified Lentz continued fraction,
// accurate for x >= a+1.
func igamcCF(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ax := a*math.Log(x) - x - lg
	if ax < -700 {
		return 0
	}
	b := x + 1 - a
	c := igamBig
	d := 1 / b
	h := d
	for i := 1; i < 1000; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < igamTiny {
			d = igamTiny
		}
		c = b + an/c
		if math.Abs(c) < igamTiny {
			c = igamTiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < igamEps {
			break
		}
	}
	return h * math.Exp(ax)
}

// NormalCDF returns the standard normal cumulative distribution Φ(x).
func NormalCDF(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }
