package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// sameCos reports whether Cos(x) has exactly math.Cos(x)'s bits; any NaN
// matches any NaN.
func sameCos(x float64) (got, want float64, ok bool) {
	got, want = Cos(x), math.Cos(x)
	if math.IsNaN(want) {
		return got, want, math.IsNaN(got)
	}
	return got, want, math.Float64bits(got) == math.Float64bits(want)
}

// cosEdgeInputs lists the inputs where a reduction or series choice
// could go wrong: a few ulps around every multiple of π/4 up to 2^20
// (octant boundaries, where j rounds up and the series switches), both
// sides of the 2^29 Payne–Hanek threshold, signed zeros, subnormals,
// extremes and non-finite values, each with both signs.
func cosEdgeInputs() []float64 {
	xs := []float64{
		0, math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1022 - math.SmallestNonzeroFloat64,
		1e-300, 1e-8, 0.5, 1, 2, 3, math.Pi, 2 * math.Pi, 1e6, 1e8,
		0x1p29, math.Nextafter(0x1p29, 0), math.Nextafter(0x1p29, math.Inf(1)), 0x1p30, 0x1p52, 1e300,
		math.MaxFloat64, math.Inf(1), math.NaN(),
	}
	nudge := func(x float64, ulps int) float64 {
		dir := math.Inf(1)
		if ulps < 0 {
			dir, ulps = math.Inf(-1), -ulps
		}
		for ; ulps > 0; ulps-- {
			x = math.Nextafter(x, dir)
		}
		return x
	}
	ks := []int{683565275, 683565276} // the multiples of π/4 either side of 2^29
	for k := 0; k <= 1<<20; k += 1 + k/64 {
		ks = append(ks, k)
	}
	for _, k := range ks {
		c := float64(k) * (math.Pi / 4)
		for ulps := -3; ulps <= 3; ulps++ {
			xs = append(xs, nudge(c, ulps))
		}
	}
	out := make([]float64, 0, 2*len(xs))
	for _, x := range xs {
		out = append(out, x, -x)
	}
	return out
}

func TestCosMatchesMathOnEdges(t *testing.T) {
	for _, x := range cosEdgeInputs() {
		if got, want, ok := sameCos(x); !ok {
			t.Errorf("Cos(%v [%#x]) = %v [%#x], want %v [%#x]",
				x, math.Float64bits(x), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestCosMatchesMathOnRandomBits draws arbitrary bit patterns (every
// exponent, NaN payloads included) and, so the common path gets most of
// the draws, random values below the Payne–Hanek threshold.
func TestCosMatchesMathOnRandomBits(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200000, Rand: rand.New(rand.NewSource(1))}
	bits := func(b uint64) bool { _, _, ok := sameCos(math.Float64frombits(b)); return ok }
	if err := quick.Check(bits, cfg); err != nil {
		t.Error(err)
	}
	inRange := func(u uint32, neg bool) bool {
		x := float64(u) / (1 << 32) * (1 << 29)
		if neg {
			x = -x
		}
		_, _, ok := sameCos(x)
		return ok
	}
	if err := quick.Check(inRange, cfg); err != nil {
		t.Error(err)
	}
}

// FuzzCos guards the bit identity against a toolchain whose math.Cos
// changes (new coefficients, an assembly kernel, fused multiply-adds).
func FuzzCos(f *testing.F) {
	for _, x := range []float64{0, 1, -1, math.Pi / 4, 3 * math.Pi / 4, 0x1p29, math.Inf(1), math.NaN(), 12345.678} {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		x := math.Float64frombits(b)
		if got, want, ok := sameCos(x); !ok {
			t.Fatalf("Cos(%#x) = %#x, want %#x", b, math.Float64bits(got), math.Float64bits(want))
		}
	})
}

var cosSink float64

// BenchmarkCos compares the kernel with math.Cos on random phases in
// [0, 2^16), the range the channel's oscillator arguments span. The
// bank is large enough that the branch predictor cannot learn math.Cos's
// octant branches from it.
func BenchmarkCos(b *testing.B) {
	src := rand.New(rand.NewSource(7))
	xs := make([]float64, 1<<16)
	for i := range xs {
		xs[i] = src.Float64() * (1 << 16)
	}
	b.Run("mathx", func(b *testing.B) {
		var s float64
		for i := 0; i < b.N; i++ {
			s += Cos(xs[i&(1<<16-1)])
		}
		cosSink = s
	})
	b.Run("math", func(b *testing.B) {
		var s float64
		for i := 0; i < b.N; i++ {
			s += math.Cos(xs[i&(1<<16-1)])
		}
		cosSink = s
	})
}
