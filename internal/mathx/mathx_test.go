package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("mean = %v, want 5", m)
	}
	if v := Variance(xs); v != 4 {
		t.Errorf("variance = %v, want 4", v)
	}
	if s := Std(xs); s != 2 {
		t.Errorf("std = %v, want 2", s)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("mean of empty should be 0")
	}
	if _, err := MeanChecked(nil); err == nil {
		t.Error("MeanChecked should error on empty input")
	}
}

func TestPearsonPerfect(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{2, 4, 6, 8, 10}
	c, err := Pearson(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-1) > 1e-12 {
		t.Errorf("corr = %v, want 1", c)
	}
	for i := range b {
		b[i] = -b[i]
	}
	c, _ = Pearson(a, b)
	if math.Abs(c+1) > 1e-12 {
		t.Errorf("corr = %v, want -1", c)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if c, err := Pearson([]float64{3, 3, 3}, []float64{1, 2, 3}); err != nil || c != 0 {
		t.Errorf("flat series: corr=%v err=%v, want 0,nil", c, err)
	}
}

func TestPearsonBounded(t *testing.T) {
	f := func(seed int64) bool {
		r := newRand(seed)
		n := 20
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = r()
			b[i] = r()
		}
		c, err := Pearson(a, b)
		return err == nil && c >= -1-1e-9 && c <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// newRand is a tiny deterministic generator for property tests.
func newRand(seed int64) func() float64 {
	s := uint64(seed)*2862933555777941757 + 3037000493
	return func() float64 {
		s = s*2862933555777941757 + 3037000493
		return float64(s>>11) / (1 << 53)
	}
}

func TestQuantiles(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	q := Quantiles(xs, 4)
	if len(q) != 3 {
		t.Fatalf("want 3 boundaries, got %d", len(q))
	}
	for i, want := range []float64{249.75, 499.5, 749.25} {
		if math.Abs(q[i]-want) > 1e-9 {
			t.Errorf("q[%d] = %v, want %v", i, q[i], want)
		}
	}
}

func TestSortedQuantilesMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := newRand(seed)
		xs := make([]float64, 50)
		for i := range xs {
			xs[i] = r()
		}
		q := Quantiles(xs, 8)
		for i := 1; i < len(q); i++ {
			if q[i] < q[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeRoundTrip(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	orig := append([]float64(nil), xs...)
	mean, std := Normalize(xs)
	if math.Abs(Mean(xs)) > 1e-12 || math.Abs(Std(xs)-1) > 1e-12 {
		t.Error("normalized series should be zero-mean unit-std")
	}
	Denormalize(xs, mean, std)
	for i := range xs {
		if math.Abs(xs[i]-orig[i]) > 1e-9 {
			t.Errorf("round trip failed at %d: %v vs %v", i, xs[i], orig[i])
		}
	}
}

// TestHammingAndAgreement checks Agreement on a small pair, its zero
// cases, and that on 64-bit blocks it equals 1 − d/64 for every Hamming
// distance d exactly (the form the stream evaluator once computed).
func TestHammingAndAgreement(t *testing.T) {
	if ag := Agreement([]byte{1, 0, 1, 1}, []byte{1, 1, 1, 0}); ag != 0.5 {
		t.Errorf("agreement=%v, want 0.5", ag)
	}
	if ag := Agreement(nil, nil); ag != 0 {
		t.Errorf("empty agreement=%v, want 0", ag)
	}
	if ag := Agreement([]byte{1}, []byte{1, 1}); ag != 0 {
		t.Errorf("mismatched-length agreement=%v, want 0", ag)
	}
	a, b := make([]byte, 64), make([]byte, 64)
	for d := 0; d <= 64; d++ {
		if d > 0 {
			b[d-1] = 1
		}
		if got, want := Agreement(a, b), 1-float64(d)/64; got != want {
			t.Errorf("d=%d: agreement %v, want %v", d, got, want)
		}
	}
}

func TestIgamcKnownValues(t *testing.T) {
	// Q(1, x) = e^{-x}; Q(0.5, x) = erfc(sqrt(x)).
	for _, x := range []float64{0.1, 0.5, 1, 2, 5} {
		if got, want := Igamc(1, x), math.Exp(-x); math.Abs(got-want) > 1e-10 {
			t.Errorf("Igamc(1,%v) = %v, want %v", x, got, want)
		}
		if got, want := Igamc(0.5, x), math.Erfc(math.Sqrt(x)); math.Abs(got-want) > 1e-10 {
			t.Errorf("Igamc(0.5,%v) = %v, want %v", x, got, want)
		}
	}
}

func TestIgamComplement(t *testing.T) {
	f := func(a8, x8 uint8) bool {
		a := 0.1 + float64(a8)/16
		x := float64(x8) / 16
		s := Igam(a, x) + Igamc(a, x)
		return math.Abs(s-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := newRand(seed)
		n := 64
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(r(), r())
		}
		spec, err := FFT(x)
		if err != nil {
			return false
		}
		back, err := IFFT(spec)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(real(back[i])-real(x[i])) > 1e-9 || math.Abs(imag(back[i])-imag(x[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTKnownSpectrum(t *testing.T) {
	// A pure cosine concentrates at ±k.
	n := 64
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Cos(2*math.Pi*4*float64(i)/float64(n)), 0)
	}
	spec, err := FFT(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range spec {
		mag := math.Hypot(real(spec[i]), imag(spec[i]))
		if i == 4 || i == n-4 {
			if mag < float64(n)/2-1e-6 {
				t.Errorf("bin %d magnitude %v too small", i, mag)
			}
		} else if mag > 1e-6 {
			t.Errorf("bin %d magnitude %v should be ~0", i, mag)
		}
	}
}

func TestFFTRejectsNonPow2(t *testing.T) {
	if _, err := FFT(make([]complex128, 12)); err == nil {
		t.Error("non-power-of-two length should error")
	}
}

func TestGrayRoundTrip(t *testing.T) {
	f := func(n uint32) bool {
		return GrayDecode(GrayEncode(uint64(n))) == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestGrayAdjacency(t *testing.T) {
	// Consecutive integers differ in exactly one Gray bit.
	for n := uint64(0); n < 1000; n++ {
		x := GrayEncode(n) ^ GrayEncode(n+1)
		if x == 0 || x&(x-1) != 0 {
			t.Fatalf("Gray codes of %d and %d differ in more than one bit", n, n+1)
		}
	}
}
