package mathx

import (
	"math"
	"math/rand"
	"testing"
)

// modSpecials are Mod arguments on its edges: ±0, subnormals, the
// smallest normal, values around 1 and the channel's periods, 2^52 and
// its neighbours (where the fast path ends), the largest finite value,
// NaN and ±Inf.
var modSpecials = func() []float64 {
	var s []float64
	for _, v := range []float64{
		0, math.SmallestNonzeroFloat64, 0x1p-1022 / 3, 0x1p-1022,
		1, 3, 0.1, 800, 1 << 52, 1 << 53, 1e300, math.MaxFloat64,
		math.NaN(), math.Inf(1),
	} {
		s = append(s, v, -v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1)))
	}
	return s
}()

func checkMod(t *testing.T, x, y float64) {
	t.Helper()
	if got, want := math.Float64bits(Mod(x, y)), math.Float64bits(math.Mod(x, y)); got != want {
		t.Fatalf("Mod(%#x, %#x) = %#x, want %#x (%g mod %g)", math.Float64bits(x), math.Float64bits(y), got, want, x, y)
	}
}

// TestModMatchesMathMod is the seeded property test: every pair of
// special values, exact multiples and their neighbours, the channel's
// bounce arguments (travel of up to a few hours at road speeds over a
// period of a few hundred metres), quotients up to and past 2^52, and
// arbitrary bit patterns.
func TestModMatchesMathMod(t *testing.T) {
	for _, x := range modSpecials {
		for _, y := range modSpecials {
			checkMod(t, x, y)
		}
	}
	src := rand.New(rand.NewSource(17))
	for i := 0; i < 200000; i++ {
		y := 1 + 1600*src.Float64()
		var x float64
		switch i % 4 {
		case 0:
			x = 4e5 * src.Float64()
		case 1:
			x = float64(src.Intn(1<<20)) * y // an exact-looking multiple
			x = math.Float64frombits(math.Float64bits(x) + uint64(src.Intn(5)) - 2)
		case 2:
			x = y * math.Ldexp(1+src.Float64(), src.Intn(60)) // quotients to 2^60
		default:
			x = math.Float64frombits(src.Uint64() &^ (1 << 63))
			y = math.Float64frombits(src.Uint64() &^ (1 << 63))
		}
		checkMod(t, x, y)
	}
}

// FuzzMod compares Mod with math.Mod on arbitrary bit patterns.
func FuzzMod(f *testing.F) {
	f.Add(uint64(0x40c3880000000000), uint64(0x4089000000000000))
	f.Add(uint64(0x4330000000000000), uint64(0x3ff0000000000000))
	f.Add(uint64(0x0000000000000001), uint64(0x000fffffffffffff))
	f.Add(uint64(0x7ff0000000000000), uint64(0x4000000000000000))
	f.Fuzz(func(t *testing.T, x, y uint64) {
		checkMod(t, math.Float64frombits(x), math.Float64frombits(y))
	})
}
