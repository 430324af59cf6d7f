package reconcile

import (
	"fmt"
	"testing"

	"repro/internal/rng"
	"repro/internal/secure"
)

var aliceSink []byte

// BenchmarkAliceCorrect times Alice's wire half alone on the serving
// system's block (64 bits, 32-value code, 16-unit decoder) at three
// mismatch counts: the Bloom transform, the decode rounds and the
// inverse transform, against code vectors Bob encoded beforehand. It
// cycles through 64 key pairs, so the branch predictor cannot learn
// one input.
func BenchmarkAliceCorrect(b *testing.B) {
	ae := TrainAE(AEConfig{KeyBits: 64, CodeDim: 32, DecoderUnits: 16}, 4, 100, rng.New(3))
	salt := []byte("bench")
	for _, flips := range []int{2, 6, 10} {
		b.Run(fmt.Sprintf("flips=%d", flips), func(b *testing.B) {
			src := rng.New(int64(flips))
			keys := make([][]byte, 64)
			codes := make([][]float64, len(keys))
			for k := range keys {
				kb := src.Bits(64)
				keys[k] = flipBits(kb, flips, src)
				code, image, err := ae.BobEncode(kb, salt)
				if err != nil {
					b.Fatal(err)
				}
				secure.Wipe(image)
				codes[k] = code
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(keys)
				final, image, err := ae.AliceCorrect(keys[k], codes[k], salt)
				if err != nil {
					b.Fatal(err)
				}
				aliceSink = final
				secure.Wipe(image)
			}
		})
	}
}
