package mathx

// OscBank evaluates a sum-of-sinusoids oscillator bank at many times:
//
//	out[i] = (Σ_p Cos(omega[p]·ts[i] + phase[p])) · scale
//
// Each term's argument is the product omega[p]·ts[i] rounded, then the
// phase added (two roundings, never fused), and the sum runs from +0 in
// path order p = 0, 1, …, exactly as a scalar loop of
// `s += Cos(w*t + φ)` followed by `s * scale` would: every output is
// that loop's value to the bit. phase must be at least as long as
// omega and out at least as long as ts.
//
// On amd64 CPUs with AVX2 the times run four lanes at a time through
// one vector kernel that performs Cos's operations lane by lane; a
// batch in which any argument leaves Cos's fast range (NaN, ±Inf,
// |x| ≥ 2^29) is recomputed by the scalar loop. Everywhere else the
// scalar loop runs alone.
func OscBank(omega, phase []float64, scale float64, ts, out []float64) {
	if len(phase) < len(omega) {
		panic("mathx: OscBank phase shorter than omega")
	}
	if len(out) < len(ts) {
		panic("mathx: OscBank out shorter than ts")
	}
	oscBank(omega, phase[:len(omega)], scale, ts, out[:len(ts)])
}

// oscBankGeneric is the scalar loop OscBank is defined by, and the path
// every CPU without the vector kernel takes. The explicit conversion
// rounds ω·t before the phase is added, so no architecture fuses the
// two into one multiply-add.
func oscBankGeneric(omega, phase []float64, scale float64, ts, out []float64) {
	for i, t := range ts {
		var s float64
		for p, w := range omega {
			s += Cos(float64(w*t) + phase[p])
		}
		out[i] = s * scale
	}
}
