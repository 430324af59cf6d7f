package mathx

import "math"

// Mod returns math.Mod(x, y) bit for bit. For x > 0, a finite y > 0 and
// x/y < 2^52 it forms the remainder with one fused multiply-add instead
// of math.Mod's shift-and-subtract loop:
//
//	n := Trunc(x/y); r := FMA(−n, y, x); if r < 0 { r += y }
//
// Both steps are exact. The rounded quotient x/y is never below
// ⌊x/y⌋ (an integer under 2^52 is representable), and it can reach
// ⌊x/y⌋ + 1 only when the true quotient lies within half an ulp (at
// most 1/4 below 2^52) of that integer, so n is ⌊x/y⌋ or one more. In
// the first case x − n·y is the true remainder, which is
// representable, so the single rounding of the FMA returns it exactly.
// In the second, x − n·y is that remainder minus y, and the remainder
// is at least 3y/4, so by Sterbenz's lemma the difference is
// representable too and the FMA is exact again; adding y back gives
// the remainder, representable, so exactly. Every other argument goes
// to math.Mod.
func Mod(x, y float64) float64 {
	q := x / y
	if !(x > 0 && y > 0 && y <= math.MaxFloat64 && q < 1<<52) {
		return math.Mod(x, y)
	}
	r := math.FMA(-math.Trunc(q), y, x)
	if r < 0 {
		r += y
	}
	return r
}
