package mathx

import "math"

// Cody–Waite split of π/4 and the minimax coefficients of the standard
// library's pure-Go sin/cos (math/sin.go, from the Cephes library). Cos
// reuses them verbatim so that every intermediate rounds exactly as
// math.Cos's does.
const (
	pi4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000
	pi4B = 3.77489470793079817668e-8  // 0x3e64442d00000000
	pi4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170

	// cosReduceThreshold is where math.Cos switches to Payne–Hanek
	// reduction (math.reduceThreshold); below it the Cody–Waite split
	// is exact enough, and x·4/π fits an int64.
	cosReduceThreshold = 1 << 29
)

// trigPoly holds the two polynomial rows, indexed by whether the reduced
// octant needs the cosine (0) or the sine (1) series.
var trigPoly = [2][6]float64{
	{ // math._cos
		-1.13585365213876817300e-11, // 0xbda8fa49a0861a9b
		2.08757008419747316778e-9,   // 0x3e21ee9d7b4e3f05
		-2.75573141792967388112e-7,  // 0xbe927e4f7eac4bc6
		2.48015872888517045348e-5,   // 0x3efa01a019c844f5
		-1.38888888888730564116e-3,  // 0xbf56c16c16c14f91
		4.16666666666665929218e-2,   // 0x3fa555555555554b
	},
	{ // math._sin
		1.58962301576546568060e-10, // 0x3de5d8fd1fd19ccd
		-2.50507477628578072866e-8, // 0xbe5ae5e5a9291f5d
		2.75573136213857245213e-6,  // 0x3ec71de3567d48a1
		-1.98412698295895385996e-4, // 0xbf2a01a019bfdf03
		8.33333333332211858878e-3,  // 0x3f8111111110f7d0
		-1.66666666666666307295e-1, // 0xbfc5555555555548
	},
}

// Cos returns math.Cos(x) bit for bit. On the common path (finite
// |x| < 2^29) it runs math's own reduction and polynomial with no branch
// on the octant: the sign is an XOR of the sign bit and the series is
// chosen by indexing, so a stream of random phases costs the branch
// predictor nothing. NaN, ±Inf and the Payne–Hanek range go to math.Cos.
//
// Octants are counted in j (|x| ≈ j·π/4, j even after rounding odd
// octants up): octants 2 and 6 mod 8 take the sine series, octants 2
// and 4 negate the result. Each expression keeps the shape of its
// counterpart in math/sin.go, so every product and sum rounds
// identically.
func Cos(x float64) float64 {
	x = math.Abs(x) // cos is even, and math.Cos(|x|) is math.Cos(x) to the bit
	if !(x < cosReduceThreshold) {
		return math.Cos(x)
	}
	j := uint64(int64(x * (4 / math.Pi)))
	j += j & 1
	y := float64(j)
	z := ((x - y*pi4A) - y*pi4B) - y*pi4C
	zz := z * z

	s := (j >> 1) & 1 // 1: sine series
	c := &trigPoly[s]
	p := (((((c[0]*zz)+c[1])*zz+c[2])*zz+c[3])*zz+c[4])*zz + c[5]

	// Branch-free select of the series' outer terms:
	//   cosine: (1 − zz/2) + (zz·zz)·p
	//   sine:   z          + (z·zz)·p
	mask := -s
	head := math.Float64frombits(math.Float64bits(1.0-0.5*zz)&^mask | math.Float64bits(z)&mask)
	m := math.Float64frombits(math.Float64bits(zz)&^mask | math.Float64bits(z)&mask)
	r := head + m*zz*p

	neg := ((j + 2) & 4) << 61 // octants 2 and 4 (mod 8) flip the sign
	return math.Float64frombits(math.Float64bits(r) ^ neg)
}

// CosSum returns the sum of Cos(x) over xs, accumulated in index order
// from zero, as a loop of `s += math.Cos(x)` would.
func CosSum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += Cos(x)
	}
	return s
}
