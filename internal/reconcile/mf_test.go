package reconcile

import (
	"testing"

	"repro/internal/rng"
)

// TestMatchedFilterBound measures what plain |Wᵀh| ranking with the
// ‖h‖²/4 count estimate achieves — the information bound the NN decoder
// should approach.
func TestMatchedFilterBound(t *testing.T) {
	cfg := AEConfig{KeyBits: 64, CodeDim: 32, DecoderUnits: 64, MaxMismatch: 0.15}
	cfg.normalize()
	ae := NewAE(cfg, rng.New(1))
	src := rng.New(2)
	for _, flips := range []int{2, 5, 8} {
		var agree float64
		const trials = 200
		for i := 0; i < trials; i++ {
			kb := src.Bits(64)
			ka := flipBits(kb, flips, src)
			yB := ae.EncodeRaw(kb)
			yA := ae.EncodeRaw(ka)
			h := make([]float64, len(yB))
			var hn float64
			for j := range h {
				h[j] = yB[j] - yA[j]
				hn += h[j] * h[j]
			}
			bp := ae.backproject(h)
			kHat := int(hn/4 + 0.5)
			out := make([]byte, 64)
			copy(out, ka)
			for r := 0; r < kHat; r++ {
				best, bv := -1, -1.0
				for j, v := range bp {
					av := v
					if av < 0 {
						av = -av
					}
					if av > bv {
						bv, best = av, j
					}
				}
				out[best] ^= 1
				bp[best] = 0
			}
			same := 0
			for j := range out {
				if out[j] == kb[j] {
					same++
				}
			}
			agree += float64(same) / 64
		}
		t.Logf("flips=%d matched-filter agreement %.4f", flips, agree/trials)
	}
}
