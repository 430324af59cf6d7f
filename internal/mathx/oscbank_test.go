package mathx

import (
	"math"
	"math/rand"
	"testing"
)

// oscBankOracle is the per-term definition OscBank must match to the
// bit: one Cos per term, summed from zero in path order, then scaled.
func oscBankOracle(omega, phase []float64, scale float64, ts []float64) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		s := 0.0
		for p := range omega {
			w := float64(omega[p] * t) // rounded: no fused multiply-add
			s += Cos(w + phase[p])
		}
		out[i] = s * scale
	}
	return out
}

// checkOscBank compares both implementations with the oracle; any NaN
// must match the oracle's bits too, since a batch holding a NaN
// argument is recomputed by the scalar loop.
func checkOscBank(t *testing.T, omega, phase []float64, scale float64, ts []float64) {
	t.Helper()
	want := oscBankOracle(omega, phase, scale, ts)
	for _, impl := range []struct {
		name string
		run  func(omega, phase []float64, scale float64, ts, out []float64)
	}{{"OscBank", OscBank}, {"generic", oscBankGeneric}} {
		got := make([]float64, len(ts))
		impl.run(omega, phase, scale, ts, got)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: %d paths, %d times: out[%d] = %#x, want %#x (t = %#x)",
					impl.name, len(omega), len(ts), i, math.Float64bits(got[i]), math.Float64bits(want[i]), math.Float64bits(ts[i]))
			}
		}
	}
}

// oscSpecials are the arguments where a lane leaves the kernel's fast
// range or sits on its edge.
var oscSpecials = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -0x1p-1022 / 3,
	math.NaN(), math.Inf(1), math.Inf(-1), 0x1p29, -0x1p29, math.Nextafter(0x1p29, 0),
	1e300, math.MaxFloat64,
}

// TestOscBankMatchesOracle is the seeded property test: random banks of
// the channel's shape (16 paths, oscillator arguments up to 2^16) at
// every length up to 41 times, then arbitrary bit patterns with special
// values dropped into random lanes, through the dispatched path (the
// vector kernel on AVX2 CPUs) and the scalar loop alike.
func TestOscBankMatchesOracle(t *testing.T) {
	src := rand.New(rand.NewSource(3))
	for trial := 0; trial < 400; trial++ {
		paths := 16
		if trial%4 == 3 {
			paths = src.Intn(20)
		}
		omega, phase := make([]float64, paths), make([]float64, paths)
		for p := range omega {
			omega[p] = 2 * math.Pi * 80 * (2*src.Float64() - 1)
			phase[p] = 2 * math.Pi * src.Float64()
		}
		ts := make([]float64, trial%42)
		for i := range ts {
			ts[i] = src.Float64() * 128
		}
		checkOscBank(t, omega, phase, math.Sqrt(1/float64(16*(1+trial%7))), ts)
	}
	bits := func() float64 { return math.Float64frombits(src.Uint64()) }
	for trial := 0; trial < 2000; trial++ {
		omega, phase := make([]float64, 1+trial%17), make([]float64, 1+trial%17)
		for p := range omega {
			omega[p], phase[p] = bits(), bits()
		}
		ts := make([]float64, trial%13)
		for i := range ts {
			ts[i] = src.Float64() * 1e3
		}
		for k := src.Intn(3); k > 0; k-- {
			v := oscSpecials[src.Intn(len(oscSpecials))]
			switch i := src.Intn(3); {
			case i == 0 && len(ts) > 0:
				ts[src.Intn(len(ts))] = v
			case i == 1:
				omega[src.Intn(len(omega))] = v
			default:
				phase[src.Intn(len(phase))] = v
			}
		}
		checkOscBank(t, omega, phase, bits(), ts)
	}
}

// FuzzOscBank drives the kernel with arbitrary ω, φ, scale and time bit
// patterns: lengths 0–9 times and 1–4 paths, so tails of every size are
// padded, and a chosen special value (NaN, ±Inf, ±0, a subnormal,
// ±2^29 and beyond) can land in any lane.
func FuzzOscBank(f *testing.F) {
	f.Add(uint64(0x40490fdb00000000), uint64(0x3ff0000000000000), uint64(0x3fd0000000000000), uint64(0x3f847ae147ae147b), uint8(5), uint8(2), uint8(0), uint8(0))
	f.Add(uint64(0x4060000000000000), uint64(0x4010000000000000), uint64(0x3ff0000000000000), uint64(0x4000000000000000), uint8(9), uint8(4), uint8(5), uint8(3))
	f.Add(uint64(0x7ff8000000000001), uint64(0), uint64(0x8000000000000000), uint64(0x41c0000000000000), uint8(3), uint8(1), uint8(7), uint8(1))
	f.Fuzz(func(t *testing.T, w, ph, sc, tb uint64, nRaw, pRaw, special, lane uint8) {
		n, paths := int(nRaw)%10, int(pRaw)%4+1
		omega, phase, ts := make([]float64, paths), make([]float64, paths), make([]float64, n)
		// Derive every element from the fuzzed patterns so all lanes differ.
		for p := range omega {
			omega[p] = math.Float64frombits(w + uint64(p)*0x9e3779b97f4a7c15)
			phase[p] = math.Float64frombits(ph ^ uint64(p)<<40)
		}
		for i := range ts {
			ts[i] = math.Float64frombits(tb + uint64(i)<<32)
		}
		if s := int(special); s < len(oscSpecials) {
			switch v := oscSpecials[s]; {
			case n > 0 && lane%3 == 0:
				ts[int(lane)%n] = v
			case lane%3 == 1:
				omega[int(lane)%paths] = v
			default:
				phase[int(lane)%paths] = v
			}
		}
		checkOscBank(t, omega, phase, math.Float64frombits(sc), ts)
	})
}

var oscSink float64

// BenchmarkOscBank times one reception's channel evaluation: a 16-path
// quadrature bank at 39 smoothing-tap times (13 edge register reads ×
// 3 taps), through the dispatched kernel and through the scalar loop.
func BenchmarkOscBank(b *testing.B) {
	src := rand.New(rand.NewSource(5))
	omega, phase := make([]float64, 16), make([]float64, 16)
	for p := range omega {
		omega[p] = 2 * math.Pi * 40 * math.Cos(2*math.Pi*src.Float64())
		phase[p] = 2 * math.Pi * src.Float64()
	}
	ts, out := make([]float64, 39), make([]float64, 39)
	for i := range ts {
		ts[i] = 120 + 0.01*float64(i/3) - 0.065*float64(i%3)/3
	}
	for _, impl := range []struct {
		name string
		run  func(omega, phase []float64, scale float64, ts, out []float64)
	}{{"kernel", OscBank}, {"scalar", oscBankGeneric}} {
		b.Run(impl.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				impl.run(omega, phase, 0.25, ts, out)
			}
			oscSink = out[0]
		})
	}
}
