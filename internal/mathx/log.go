package mathx

import "math"

// Log10s writes math.Log10(x[i]) into out[i] for every i, bit for bit.
// out must be at least as long as x; it may be x itself.
//
// On amd64 CPUs with AVX2 the values run four lanes at a time through
// one vector kernel that performs, lane by lane, the operations of the
// standard library's amd64 logarithm (math/log_amd64.s) and then
// math.Log10's multiply by 1/Ln10; a batch holding a lane that is not
// a positive normal number (±0, a subnormal, a negative, NaN or ±Inf)
// is recomputed by the scalar loop. Everywhere else the scalar loop
// runs alone.
func Log10s(x, out []float64) {
	if len(out) < len(x) {
		panic("mathx: Log10s out shorter than x")
	}
	log10s(x, out[:len(x)])
}

// log10sGeneric is the scalar loop Log10s is defined by.
func log10sGeneric(x, out []float64) {
	for i, v := range x {
		out[i] = math.Log10(v)
	}
}
