package mathx

import (
	"math"
	"math/rand"
	"testing"
)

// logSpecials are the Log10s arguments where a lane leaves the vector
// path or sits on an edge of its reduction: ±0, subnormals and the
// smallest normals, negatives, NaN, ±Inf, values around 1 (f = 0) and
// around √2/2 and √2 (the compare-and-double), powers of two, and the
// largest finite values.
var logSpecials = func() []float64 {
	var s []float64
	for _, v := range []float64{
		0, math.SmallestNonzeroFloat64, 0x1p-1022 / 3, 0x1p-1022, 1e-300,
		0.5, 1, 2, math.Sqrt2 / 2, math.Sqrt2, 0.75, 10, 1e10, 1e300, math.MaxFloat64,
		math.NaN(), math.Inf(1),
	} {
		s = append(s, v, -v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1)),
			math.Nextafter(math.Nextafter(v, 0), 0), math.Nextafter(math.Nextafter(v, math.Inf(1)), math.Inf(1)))
	}
	return s
}()

// checkLog10s compares Log10s and its scalar loop with math.Log10 bit
// for bit, in place and into a separate slice.
func checkLog10s(t *testing.T, xs []float64) {
	t.Helper()
	for _, impl := range []struct {
		name string
		run  func(x, out []float64)
	}{{"Log10s", Log10s}, {"scalar loop", log10sGeneric}} {
		out := make([]float64, len(xs)+1)
		out[len(xs)] = 7 // past the end: must stay untouched
		impl.run(xs, out)
		inPlace := append([]float64(nil), xs...)
		impl.run(inPlace, inPlace)
		for i, x := range xs {
			want := math.Float64bits(math.Log10(x))
			if got := math.Float64bits(out[i]); got != want {
				t.Fatalf("%s: %d values: out[%d] = %#x, want %#x (x = %#x)", impl.name, len(xs), i, got, want, math.Float64bits(x))
			}
			if got := math.Float64bits(inPlace[i]); got != want {
				t.Fatalf("%s in place: %d values: out[%d] = %#x, want %#x (x = %#x)", impl.name, len(xs), i, got, want, math.Float64bits(x))
			}
		}
		if out[len(xs)] != 7 {
			t.Fatalf("%s wrote past len(x)", impl.name)
		}
	}
}

// TestLog10sMatchesLog10 is the seeded property test: channel-scale
// envelopes and distances at every length up to 41, every special value
// in every lane position, values a few ulps around 1 and √2/2, then
// arbitrary bit patterns with special values dropped into random lanes,
// through the dispatched path (the vector kernel on AVX2 CPUs) and the
// scalar loop alike.
func TestLog10sMatchesLog10(t *testing.T) {
	src := rand.New(rand.NewSource(13))
	for n := 0; n <= 41; n++ {
		xs := make([]float64, n)
		for i := range xs {
			switch i % 3 {
			case 0:
				xs[i] = src.Float64() * 3 // an envelope |h|
			case 1:
				xs[i] = 200 + 600*src.Float64() // a distance in metres
			default:
				xs[i] = math.Exp(src.NormFloat64() * 20)
			}
		}
		checkLog10s(t, xs)
	}
	for _, v := range logSpecials {
		for lane := 0; lane < 4; lane++ {
			for _, n := range []int{lane + 1, 4, 7} {
				xs := []float64{1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5}[:n]
				xs[lane%n] = v
				checkLog10s(t, xs)
			}
		}
	}
	var edges []float64
	for _, v := range []float64{1, math.Sqrt2 / 2, math.Sqrt2} {
		b := math.Float64bits(v)
		for d := uint64(0); d < 64; d++ {
			edges = append(edges, math.Float64frombits(b+d), math.Float64frombits(b-d))
		}
	}
	checkLog10s(t, edges)
	for trial := 0; trial < 300; trial++ {
		xs := make([]float64, 1+src.Intn(24))
		for i := range xs {
			xs[i] = math.Float64frombits(src.Uint64() &^ (1 << 63))
		}
		if trial%2 == 0 {
			xs[src.Intn(len(xs))] = logSpecials[src.Intn(len(logSpecials))]
		}
		checkLog10s(t, xs)
	}
}

// FuzzLog10s drives the kernel with arbitrary bit patterns: lengths
// 0–9, so tails of every size are padded, and a chosen special value
// can land in any lane.
func FuzzLog10s(f *testing.F) {
	f.Add(uint64(0x3ff0000000000000), uint8(5), uint8(0), uint8(0))
	f.Add(uint64(0x3fe6a09e667f3bcd), uint8(9), uint8(40), uint8(3))
	f.Add(uint64(0x0008000000000000), uint8(4), uint8(1), uint8(2))
	f.Add(uint64(0x4079000000000000), uint8(8), uint8(255), uint8(6))
	f.Fuzz(func(t *testing.T, x uint64, nRaw, special, lane uint8) {
		xs := make([]float64, int(nRaw)%10)
		for i := range xs {
			xs[i] = math.Float64frombits(x + uint64(i)*0x9e3779b97f4a7c15)
		}
		if s := int(special); s < len(logSpecials) && len(xs) > 0 {
			xs[int(lane)%len(xs)] = logSpecials[s]
		}
		checkLog10s(t, xs)
	})
}

var logSink float64

// BenchmarkLog10s times one reception's decimal logarithms: 39
// smoothing-tap envelopes (13 edge register reads × 3 taps), through
// the dispatched kernel and through the scalar loop.
func BenchmarkLog10s(b *testing.B) {
	src := rand.New(rand.NewSource(5))
	xs, out := make([]float64, 39), make([]float64, 39)
	for i := range xs {
		xs[i] = math.Hypot(src.NormFloat64(), src.NormFloat64())
	}
	for _, impl := range []struct {
		name string
		run  func(x, out []float64)
	}{{"kernel", Log10s}, {"scalar", log10sGeneric}} {
		b.Run(impl.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				impl.run(xs, out)
			}
			logSink = out[0]
		})
	}
}
