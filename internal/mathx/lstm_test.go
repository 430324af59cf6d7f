package mathx

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// actSpecials are the activation arguments where a lane leaves the
// kernels' vector path or sits on a range edge: ±0, subnormals, NaN,
// ±Inf, tanh's 0.625 and 0.5·MAXLOG edges and their neighbours, and
// sigmoid arguments around where math.Exp(−|x|) turns subnormal
// (|x|·log2(e) rounding to 1023) and then to zero.
var actSpecials = func() []float64 {
	const big = 0.5 * 8.8029691931113054295988e+01 // math.Tanh's 0.5·MAXLOG
	var s []float64
	for _, v := range []float64{
		0, math.SmallestNonzeroFloat64, 0x1p-1022 / 3, 0x1p-1022, 1e-300,
		0.625, big, 1, 2, 18.5, 36.8, 708.3, 708.39, 708.4, 708.5, 709.78, 745.1, 745.2, 746, 1e300, math.MaxFloat64,
		math.NaN(), math.Inf(1),
	} {
		s = append(s, v, -v, math.Nextafter(v, 0), -math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1)), -math.Nextafter(v, math.Inf(1)))
	}
	return s
}()

// checkActivations compares both activation implementations with their
// definitions, Sigmoid and math.Tanh, bit for bit, in place and into a
// separate slice.
func checkActivations(t *testing.T, xs []float64) {
	t.Helper()
	for _, impl := range []struct {
		name string
		run  func(dst, src []float64)
		def  func(float64) float64
	}{
		{"Sigmoids", Sigmoids, Sigmoid},
		{"Tanhs", Tanhs, math.Tanh},
		{"sigmoid loop", func(dst, src []float64) { activateGeneric(false, dst, src) }, Sigmoid},
		{"tanh loop", func(dst, src []float64) { activateGeneric(true, dst, src) }, math.Tanh},
	} {
		out := make([]float64, len(xs)+1)
		out[len(xs)] = 7 // past the end: must stay untouched
		impl.run(out, xs)
		inPlace := append([]float64(nil), xs...)
		impl.run(inPlace, inPlace)
		for i, x := range xs {
			want := math.Float64bits(impl.def(x))
			if got := math.Float64bits(out[i]); got != want {
				t.Fatalf("%s: %d values: out[%d] = %#x, want %#x (x = %#x)", impl.name, len(xs), i, got, want, math.Float64bits(x))
			}
			if got := math.Float64bits(inPlace[i]); got != want {
				t.Fatalf("%s in place: %d values: out[%d] = %#x, want %#x (x = %#x)", impl.name, len(xs), i, got, want, math.Float64bits(x))
			}
		}
		if out[len(xs)] != 7 {
			t.Fatalf("%s wrote past len(src)", impl.name)
		}
	}
}

// TestActivationsMatchOracle is the seeded property test: gate
// pre-activations at several scales at every length up to 41, both
// tanh ranges' edges swept in every lane position, then arbitrary bit
// patterns with special values dropped into random lanes, through the
// dispatched path (the vector kernels on AVX2+FMA CPUs) and the scalar
// loop alike.
func TestActivationsMatchOracle(t *testing.T) {
	src := rand.New(rand.NewSource(11))
	for trial := 0; trial < 600; trial++ {
		xs := make([]float64, trial%42)
		scale := []float64{0.05, 0.5, 2, 8, 40, 800}[trial%6]
		for i := range xs {
			xs[i] = src.NormFloat64() * scale
		}
		checkActivations(t, xs)
	}
	for _, v := range actSpecials {
		for lane := 0; lane < 9; lane++ {
			xs := make([]float64, 9)
			for i := range xs {
				xs[i] = src.NormFloat64()
			}
			xs[lane] = v
			checkActivations(t, xs)
		}
	}
	for trial := 0; trial < 3000; trial++ {
		xs := make([]float64, trial%13)
		for i := range xs {
			xs[i] = math.Float64frombits(src.Uint64())
			if trial%2 == 0 { // keep most lanes in the vector path
				xs[i] = src.NormFloat64() * 10
			}
		}
		for k := src.Intn(3); k > 0 && len(xs) > 0; k-- {
			xs[src.Intn(len(xs))] = actSpecials[src.Intn(len(actSpecials))]
		}
		checkActivations(t, xs)
	}
}

// TestActivationsDense sweeps both tanh range edges and the sigmoid's
// subnormal edge densely: every float64 within 2^12 ulps of each.
func TestActivationsDense(t *testing.T) {
	const big = 0.5 * 8.8029691931113054295988e+01
	for _, edge := range []float64{0.625, big, 708.3964185322641, 708.7} {
		xs := make([]float64, 0, 1<<13)
		for d := -1 << 12; d < 1<<12; d++ {
			xs = append(xs, math.Float64frombits(uint64(int64(math.Float64bits(edge))+int64(d))))
		}
		checkActivations(t, xs)
		for i := range xs {
			xs[i] = -xs[i]
		}
		checkActivations(t, xs)
	}
}

// FuzzActivations drives both activation kernels with fuzzer-chosen
// bit patterns: lengths 0–9, every element derived from the fuzzed
// pattern, and a chosen special value in a chosen lane.
func FuzzActivations(f *testing.F) {
	f.Add(uint64(0x3fe4000000000000), uint64(0x3f50624dd2f1a9fc), uint8(9), uint8(0), uint8(0))
	f.Add(uint64(0xc04601e678fc457b), uint64(0x3ff0000000000000), uint8(5), uint8(21), uint8(3))
	f.Add(uint64(0x408622d0e5604189), uint64(0x3fb999999999999a), uint8(4), uint8(120), uint8(1))
	f.Fuzz(func(t *testing.T, base, step uint64, nRaw, special, lane uint8) {
		n := int(nRaw) % 10
		xs := make([]float64, n)
		b := math.Float64frombits(base)
		for i := range xs {
			xs[i] = b + float64(i)*math.Float64frombits(step)
		}
		if s := int(special); s < len(actSpecials) && n > 0 {
			xs[int(lane)%n] = actSpecials[s]
		}
		checkActivations(t, xs)
	})
}

// colMajor returns the column-major copy of the rows×cols row-major w.
func colMajor(w []float64, rows, cols int) []float64 {
	wt := make([]float64, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			wt[c*rows+r] = w[r*cols+c]
		}
	}
	return wt
}

// checkColMajor compares AddMatVecColMajor and its scalar loop with the
// LSTM gate's reference loop over the row-major matrix, bit for bit,
// from the same seeded accumulators; an element past the rows must stay
// untouched.
func checkColMajor(t *testing.T, w []float64, rows, cols int, x, seed []float64) {
	t.Helper()
	want := make([]float64, rows)
	for r := range want {
		sum := seed[r]
		for c := 0; c < cols; c++ {
			sum += w[r*cols+c] * x[c]
		}
		want[r] = sum
	}
	wt := colMajor(w, rows, cols)
	for _, impl := range []struct {
		name string
		run  func(out []float64)
	}{
		{"AddMatVecColMajor", func(out []float64) { AddMatVecColMajor(wt, rows, cols, x, out) }},
		{"scalar loop", func(out []float64) { addColMajorRows(wt, rows, 0, x[:cols], out[:rows]) }},
	} {
		out := append(append([]float64(nil), seed...), 7)
		impl.run(out)
		for r := 0; r < rows; r++ {
			if math.Float64bits(out[r]) != math.Float64bits(want[r]) {
				t.Fatalf("%s %d×%d: out[%d] = %#x, want %#x", impl.name, rows, cols, r, math.Float64bits(out[r]), math.Float64bits(want[r]))
			}
		}
		if out[rows] != 7 {
			t.Fatalf("%s %d×%d wrote past the rows", impl.name, rows, cols)
		}
	}
}

// TestAddMatVecColMajorMatchesReference covers every row count up to
// 41 (full 32-row blocks, 4-row blocks and a scalar tail), the LSTM
// shapes (4·H rows by H columns for H = 4, 16, 32, 128), and special
// values in the weights, inputs and accumulators.
func TestAddMatVecColMajorMatchesReference(t *testing.T) {
	src := rand.New(rand.NewSource(12))
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = src.NormFloat64()
		}
		return v
	}
	shapes := [][2]int{{64, 16}, {16, 4}, {128, 32}, {512, 128}, {5, 0}, {0, 3}}
	for rows := 0; rows <= 41; rows++ {
		shapes = append(shapes, [2]int{rows, 1 + rows%17})
	}
	for _, s := range shapes {
		rows, cols := s[0], s[1]
		checkColMajor(t, vec(rows*cols), rows, cols, vec(cols), vec(rows))
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, math.MaxFloat64}
	for trial := 0; trial < 500; trial++ {
		rows, cols := 1+src.Intn(70), 1+src.Intn(20)
		w, x, seed := vec(rows*cols), vec(cols), vec(rows)
		for k := src.Intn(4); k > 0; k-- {
			v := specials[src.Intn(len(specials))]
			switch src.Intn(3) {
			case 0:
				w[src.Intn(len(w))] = v
			case 1:
				x[src.Intn(len(x))] = v
			default:
				seed[src.Intn(len(seed))] = v
			}
		}
		checkColMajor(t, w, rows, cols, x, seed)
	}
}

// FuzzAddMatVecColMajor drives the recurrence kernel with fuzzer-chosen
// shapes (up to 80 rows, so both block sizes and the tail run) and
// element bit patterns.
func FuzzAddMatVecColMajor(f *testing.F) {
	f.Add(uint8(64), uint8(16), int64(1), uint64(0))
	f.Add(uint8(37), uint8(3), int64(2), uint64(0x7ff8000000000001))
	f.Add(uint8(4), uint8(1), int64(3), uint64(0x8000000000000000))
	f.Fuzz(func(t *testing.T, rowsRaw, colsRaw uint8, seed int64, special uint64) {
		rows, cols := int(rowsRaw)%81, int(colsRaw)%33
		l := lcg(seed)
		w, x, acc := fill(rows*cols, &l), fill(cols, &l), fill(rows, &l)
		if len(w) > 0 {
			w[int(special%uint64(len(w)))] = math.Float64frombits(special)
		}
		checkColMajor(t, w, rows, cols, x, acc)
	})
}

var actSink float64

// BenchmarkActivations times one LSTM step's activations at the serving
// width (H = 16: 48 sigmoids and 32 tanhs, of gate pre-activations of
// a trained model's scale), through the dispatched kernels and through
// the scalar loop.
func BenchmarkActivations(b *testing.B) {
	src := rand.New(rand.NewSource(13))
	gates := make([]float64, 64)
	for i := range gates {
		gates[i] = src.NormFloat64() * 2
	}
	out := make([]float64, 64)
	for _, impl := range []struct {
		name string
		run  func(tanh bool, dst, src []float64)
	}{
		{"kernel", func(tanh bool, dst, src []float64) {
			if tanh {
				Tanhs(dst, src)
			} else {
				Sigmoids(dst, src)
			}
		}},
		{"scalar", activateGeneric},
	} {
		b.Run(impl.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				impl.run(false, out[:48], gates[:48])
				impl.run(true, out[48:], gates[48:])
				impl.run(true, out[48:], gates[:16])
			}
			actSink = out[0]
		})
	}
}

// BenchmarkAddMatVecColMajor times one LSTM step's recurrence at the
// serving width (the four gates' 64×16 U against h) and at the paper's
// (512×128), through the dispatched kernel and its scalar loop.
func BenchmarkAddMatVecColMajor(b *testing.B) {
	for _, hd := range []int{16, 128} {
		rows := 4 * hd
		l := lcg(14)
		wt, x, out := fill(rows*hd, &l), fill(hd, &l), make([]float64, rows)
		for _, impl := range []struct {
			name string
			run  func()
		}{
			{"kernel", func() { AddMatVecColMajor(wt, rows, hd, x, out) }},
			{"scalar", func() { addColMajorRows(wt, rows, 0, x, out) }},
		} {
			b.Run(fmt.Sprintf("%s/H=%d", impl.name, hd), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					clear(out)
					impl.run()
				}
				actSink = out[0]
			})
		}
	}
}
