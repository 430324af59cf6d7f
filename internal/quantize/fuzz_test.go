package quantize

import "testing"

// FuzzMultiBit checks the quantizer's structural invariants on arbitrary
// inputs: bit/kept length agreement, kept indices strictly increasing and
// in range, all bit values 0/1, and agreement with the append-per-sample
// oracle (reference_test.go).
func FuzzMultiBit(f *testing.F) {
	f.Add([]byte{10, 20, 30, 250, 0, 128}, uint8(2), uint8(40))
	f.Add([]byte{1}, uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, bps, guard uint8) {
		if len(raw) == 0 {
			return
		}
		xs := make([]float64, len(raw))
		for i, b := range raw {
			xs[i] = float64(b)/16 - 8
		}
		cfg := MultiBitConfig{
			BitsPerSample: int(bps%8) + 1,
			GuardRatio:    float64(guard%100) / 100,
			BlockSize:     32,
		}
		res, err := MultiBit(xs, cfg)
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		if len(res.Bits) != len(res.Kept)*cfg.BitsPerSample {
			t.Fatalf("bits %d != kept %d × %d", len(res.Bits), len(res.Kept), cfg.BitsPerSample)
		}
		prev := -1
		for _, k := range res.Kept {
			if k <= prev || k >= len(xs) {
				t.Fatalf("kept index %d out of order/range", k)
			}
			prev = k
		}
		for _, b := range res.Bits {
			if b > 1 {
				t.Fatalf("bit value %d", b)
			}
		}
		if want := refMultiBit(xs, cfg); !sameResult(res, want) {
			t.Fatalf("%+v: result differs from the append-per-sample oracle", cfg)
		}
	})
}
