package mathx

import (
	"math"
	"testing"
)

// naiveMatMulTBias is the unblocked reference the kernels must match
// bit-for-bit: accumulator seeded at the bias, c ascending.
func naiveMatMulTBias(a []float64, m, k int, b []float64, n int, bias []float64) []float64 {
	out := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			sum := 0.0
			if bias != nil {
				sum = bias[j]
			}
			for c := 0; c < k; c++ {
				sum += b[j*k+c] * a[i*k+c]
			}
			out[i*n+j] = sum
		}
	}
	return out
}

// lcg is a tiny deterministic generator so the kernel tests do not
// depend on internal/rng (keeps mathx dependency-free).
type lcg uint64

func (l *lcg) next() float64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	// Spread across a few orders of magnitude so rounding actually
	// differs between op orders if an implementation reassociates.
	v := float64(int64(*l)>>11) / float64(1<<52)
	return v * 3.7
}

func fill(n int, l *lcg) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = l.next()
	}
	return out
}

func bitsEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d differs: got %x want %x (%.17g vs %.17g)",
				name, i, math.Float64bits(got[i]), math.Float64bits(want[i]), got[i], want[i])
		}
	}
}

// TestMatMulTBiasMatchesNaive crosses the block boundary (gemmBlock=64)
// in both output dimensions so the tiled loops are exercised, runs the
// one-term (k = 1) path at LSTM input-projection shapes and the narrow
// (n < 4) path at predictor-head shapes (k = 32, whole and partial
// four-row passes), and checks byte-identity against the unblocked
// reference.
func TestMatMulTBiasMatchesNaive(t *testing.T) {
	l := lcg(1)
	for _, dims := range [][3]int{
		{1, 1, 1}, {3, 5, 7}, {32, 1, 64}, {65, 3, 64}, {64, 17, 65},
		{130, 9, 130}, {7, 200, 3}, {1, 64, 129},
		{32, 1, 16}, {5, 1, 3}, {130, 1, 65}, {1, 1, 512},
		{4, 32, 1}, {21, 32, 1}, {20, 32, 2}, {7, 32, 3}, {130, 32, 2}, {3, 32, 1},
	} {
		m, k, n := dims[0], dims[1], dims[2]
		a := fill(m*k, &l)
		b := fill(n*k, &l)
		bias := fill(n, &l)
		out := make([]float64, m*n)
		MatMulTBias(a, m, k, b, n, bias, out)
		bitsEqual(t, "MatMulTBias", out, naiveMatMulTBias(a, m, k, b, n, bias))

		MatMulT(a, m, k, b, n, out)
		bitsEqual(t, "MatMulT", out, naiveMatMulTBias(a, m, k, b, n, nil))
	}
}

// TestMatMulTSelfAlias checks the documented-legal aliasing: A and B
// may share backing storage (both are read-only inputs).
func TestMatMulTSelfAlias(t *testing.T) {
	l := lcg(2)
	const m, k = 9, 13
	a := fill(m*k, &l)
	out := make([]float64, m*m)
	MatMulT(a, m, k, a, m, out)
	bitsEqual(t, "MatMulT self-alias", out, naiveMatMulTBias(a, m, k, a, m, nil))
}

func TestMatVecMatchesReference(t *testing.T) {
	l := lcg(3)
	for _, dims := range [][2]int{{1, 1}, {5, 9}, {128, 32}, {64, 257}} {
		rows, cols := dims[0], dims[1]
		w := fill(rows*cols, &l)
		x := fill(cols, &l)
		want := make([]float64, rows)
		for r := 0; r < rows; r++ {
			sum := 0.0
			for c := 0; c < cols; c++ {
				sum += w[r*cols+c] * x[c]
			}
			want[r] = sum
		}
		out := make([]float64, rows)
		MatVec(w, rows, cols, x, out)
		bitsEqual(t, "MatVec", out, want)
	}
}

// TestMatVecTMatchesColumnDot pins the streamed transposed product to
// the column-dot reference (the AE backprojection loop): per output
// element the terms must be added in ascending r.
func TestMatVecTMatchesColumnDot(t *testing.T) {
	l := lcg(4)
	for _, dims := range [][2]int{{1, 1}, {32, 64}, {200, 7}, {3, 129}} {
		rows, cols := dims[0], dims[1]
		w := fill(rows*cols, &l)
		x := fill(rows, &l)
		want := make([]float64, cols)
		for c := 0; c < cols; c++ {
			sum := 0.0
			for r := 0; r < rows; r++ {
				sum += w[r*cols+c] * x[r]
			}
			want[c] = sum
		}
		out := make([]float64, cols)
		for i := range out {
			out[i] = math.NaN() // MatVecT must overwrite, not accumulate
		}
		MatVecT(w, rows, cols, x, out)
		bitsEqual(t, "MatVecT", out, want)
	}
}

func TestGEMMShapeGuards(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	a := make([]float64, 6)
	expectPanic("short A", func() { MatMulT(a, 4, 2, a, 3, make([]float64, 12)) })
	expectPanic("short B", func() { MatMulT(a, 3, 2, a[:2], 3, make([]float64, 9)) })
	expectPanic("short out", func() { MatMulT(a, 3, 2, a, 3, make([]float64, 8)) })
	expectPanic("short bias", func() {
		MatMulTBias(a, 3, 2, a, 3, make([]float64, 2), make([]float64, 9))
	})
	expectPanic("negative dim", func() { MatMulT(a, -1, 2, a, 3, make([]float64, 9)) })
	expectPanic("matvec short x", func() { MatVec(a, 3, 2, a[:1], make([]float64, 3)) })
	expectPanic("matvecT short out", func() { MatVecT(a, 3, 2, make([]float64, 3), make([]float64, 1)) })
}

// FuzzGEMM drives the blocked kernels with fuzzer-chosen shapes and
// element bytes (including the A==B transpose-style alias) and demands
// byte-identity with the naive reference on every element.
func FuzzGEMM(f *testing.F) {
	f.Add(uint8(3), uint8(5), uint8(7), int64(1), false)
	f.Add(uint8(65), uint8(2), uint8(64), int64(9), false)
	f.Add(uint8(8), uint8(8), uint8(8), int64(42), true)
	f.Add(uint8(1), uint8(0), uint8(1), int64(7), false)
	f.Add(uint8(32), uint8(1), uint8(64), int64(5), false)
	f.Add(uint8(7), uint8(1), uint8(7), int64(6), true)
	f.Add(uint8(20), uint8(32), uint8(0), int64(3), false)
	f.Add(uint8(21), uint8(32), uint8(1), int64(4), false)
	f.Add(uint8(6), uint8(32), uint8(2), int64(8), false)
	f.Fuzz(func(t *testing.T, mRaw, kRaw, nRaw uint8, seed int64, alias bool) {
		m := int(mRaw)%96 + 1
		k := int(kRaw) % 96 // k = 0 is legal: out = bias (or zero)
		n := int(nRaw)%96 + 1
		l := lcg(seed)
		a := fill(m*k, &l)
		b := fill(n*k, &l)
		bias := fill(n, &l)
		if alias {
			// A and B share storage: b becomes a view of a's shape-
			// compatible prefix (both read-only, documented legal).
			n = m
			b = a
			bias = bias[:0]
			bias = append(bias, fill(n, &l)...)
		}
		out := make([]float64, m*n)
		MatMulTBias(a, m, k, b, n, bias, out)
		want := naiveMatMulTBias(a, m, k, b, n, bias)
		for i := range out {
			if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
				t.Fatalf("MatMulTBias m=%d k=%d n=%d alias=%v: element %d differs", m, k, n, alias, i)
			}
		}
		MatMulT(a, m, k, b, n, out)
		want = naiveMatMulTBias(a, m, k, b, n, nil)
		for i := range out {
			if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
				t.Fatalf("MatMulT m=%d k=%d n=%d alias=%v: element %d differs", m, k, n, alias, i)
			}
		}
	})
}
