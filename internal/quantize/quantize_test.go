package quantize

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestMultiBitNoGuardKeepsEverything(t *testing.T) {
	src := rng.New(1)
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = src.Normal(0, 1)
	}
	res, err := MultiBit(xs, MultiBitConfig{BitsPerSample: 2, BlockSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Kept) != 64 || len(res.Bits) != 128 {
		t.Fatalf("kept %d bits %d, want 64/128", len(res.Kept), len(res.Bits))
	}
}

func TestMultiBitGuardDropsSamples(t *testing.T) {
	src := rng.New(2)
	xs := make([]float64, 256)
	for i := range xs {
		xs[i] = src.Normal(0, 1)
	}
	res0, _ := MultiBit(xs, MultiBitConfig{BitsPerSample: 2, BlockSize: 32})
	res5, _ := MultiBit(xs, MultiBitConfig{BitsPerSample: 2, GuardRatio: 0.5, BlockSize: 32})
	if len(res5.Kept) >= len(res0.Kept) {
		t.Errorf("guard band should drop samples: %d vs %d", len(res5.Kept), len(res0.Kept))
	}
	if len(res5.Kept) == 0 {
		t.Error("guard 0.5 should not drop everything")
	}
}

func TestMultiBitMonotone(t *testing.T) {
	// Larger values never map to smaller levels (natural coding makes
	// level order readable from the bits).
	f := func(seed int64) bool {
		src := rng.New(seed)
		xs := make([]float64, 32)
		for i := range xs {
			xs[i] = src.Normal(0, 1)
		}
		res, err := MultiBit(xs, MultiBitConfig{
			BitsPerSample: 2, BlockSize: 32, NaturalCoding: true,
			Thresholds: GaussianThresholds(2),
		})
		if err != nil {
			return false
		}
		level := func(i int) int {
			return int(res.Bits[2*i])<<1 | int(res.Bits[2*i+1])
		}
		for i := range res.Kept {
			for j := range res.Kept {
				a, b := res.Kept[i], res.Kept[j]
				if xs[a] < xs[b] && level(i) > level(j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestGaussianThresholds(t *testing.T) {
	th := GaussianThresholds(2)
	want := []float64{-0.6745, 0, 0.6745}
	for i := range th {
		if math.Abs(th[i]-want[i]) > 1e-3 {
			t.Errorf("threshold %d = %v, want %v", i, th[i], want[i])
		}
	}
}

func TestIntersectKept(t *testing.T) {
	a := Result{Bits: []byte{0, 0, 0, 1, 1, 0}, Kept: []int{0, 2, 5}}
	b := Result{Bits: []byte{1, 1, 0, 0}, Kept: []int{2, 9}}
	ba, bb := IntersectKept(a, b, 2)
	if len(ba) != 2 || len(bb) != 2 {
		t.Fatalf("intersection lengths %d/%d, want 2/2", len(ba), len(bb))
	}
	if ba[0] != 0 || ba[1] != 1 || bb[0] != 1 || bb[1] != 1 {
		t.Errorf("intersected bits = %v / %v", ba, bb)
	}
}

func TestMeanThreshold(t *testing.T) {
	bits := MeanThreshold([]float64{1, 2, 3, 10}, 4)
	want := []byte{0, 0, 0, 1}
	for i := range want {
		if bits[i] != want[i] {
			t.Fatalf("bits = %v, want %v", bits, want)
		}
	}
}

func TestIntervalYield(t *testing.T) {
	src := rng.New(3)
	xs := make([]float64, 600)
	for i := range xs {
		xs[i] = src.Normal(0, 1)
	}
	bits := Interval(xs, 6, 50)
	if len(bits) != 100 {
		t.Errorf("interval yield %d bits, want 100", len(bits))
	}
}

func TestMultiBitValidation(t *testing.T) {
	if _, err := MultiBit([]float64{1}, MultiBitConfig{BitsPerSample: 0}); err == nil {
		t.Error("zero bits per sample must be rejected")
	}
	if _, err := MultiBit([]float64{1}, MultiBitConfig{BitsPerSample: 2, GuardRatio: 1.5}); err == nil {
		t.Error("guard ratio ≥1 must be rejected")
	}
	if _, err := MultiBit(nil, MultiBitConfig{BitsPerSample: 2}); err == nil {
		t.Error("empty input must be rejected")
	}
}

func TestNaturalVsGrayBitBalance(t *testing.T) {
	// Under heavy guard banding, natural coding keeps both bit positions
	// balanced while Gray coding biases the LSB — the property the
	// pipeline depends on for key randomness.
	src := rng.New(4)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = src.Normal(0, 1)
	}
	count := func(natural bool) (b0, b1 float64) {
		res, err := MultiBit(xs, MultiBitConfig{
			BitsPerSample: 2, GuardRatio: 0.8, BlockSize: 32,
			Thresholds: GaussianThresholds(2), NaturalCoding: natural,
		})
		if err != nil {
			t.Fatal(err)
		}
		n := len(res.Kept)
		for i := 0; i < n; i++ {
			b0 += float64(res.Bits[2*i])
			b1 += float64(res.Bits[2*i+1])
		}
		return b0 / float64(n), b1 / float64(n)
	}
	nb0, nb1 := count(true)
	_, gb1 := count(false)
	if math.Abs(nb0-0.5) > 0.05 || math.Abs(nb1-0.5) > 0.05 {
		t.Errorf("natural coding biased: %v %v", nb0, nb1)
	}
	if math.Abs(gb1-0.5) < 0.1 {
		t.Errorf("expected Gray LSB bias under guard banding, got %v", gb1)
	}
}
