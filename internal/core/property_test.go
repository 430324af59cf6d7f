package core

import (
	"testing"

	"repro/internal/amplify"
	"repro/internal/channel"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// TestKeptBitsBalanced is a security regression: the bits entering
// reconciliation must be close to marginally unbiased, or the final keys
// inherit structure an attacker can exploit (see the natural-coding
// discussion in internal/quantize).
func TestKeptBitsBalanced(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	sc := trace.NewScenario(channel.Urban, channel.V2I)
	sys, _, test := buildSystem(t, sc, 61, 300, 20)
	var ones, total float64
	for _, smp := range test.Samples {
		bobBits, bobKept, err := sys.BobQuantize(smp.Bob)
		if err != nil {
			t.Fatal(err)
		}
		_, finalKept := sys.AliceSelect(smp.Alice, bobKept)
		final := pipeline.SelectAt(bobBits, bobKept, finalKept, sys.Cfg.BitsPerSample)
		for _, b := range final {
			ones += float64(b)
			total++
		}
	}
	rate := ones / total
	t.Logf("kept-bit ones rate: %.4f over %.0f bits", rate, total)
	if rate < 0.42 || rate > 0.58 {
		t.Errorf("kept bits biased: ones rate %.4f", rate)
	}
}

// TestKeptBitEntropy checks the pre-amplification material carries near
// one bit of entropy per bit.
func TestKeptBitEntropy(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	sc := trace.NewScenario(channel.Urban, channel.V2V)
	sys, _, test := buildSystem(t, sc, 62, 300, 20)
	var stream []byte
	for _, smp := range test.Samples {
		bobBits, bobKept, err := sys.BobQuantize(smp.Bob)
		if err != nil {
			t.Fatal(err)
		}
		_, finalKept := sys.AliceSelect(smp.Alice, bobKept)
		stream = append(stream, pipeline.SelectAt(bobBits, bobKept, finalKept, sys.Cfg.BitsPerSample)...)
	}
	h := amplify.EstimateEntropy(stream)
	t.Logf("pre-amplification entropy: %.4f bit/bit over %d bits", h, len(stream))
	// Guard banding keeps extreme levels more often, which bonds the two
	// bits of a sample's natural code word and costs ~0.3 bit/bit at the
	// source. Privacy amplification compresses accordingly (a 64-bit
	// block carries ≈ 40+ bits of entropy into the hash); the final keys
	// are the NIST-tested artifact. This floor guards against
	// regressions below that understood level.
	if h < 0.6 {
		t.Errorf("kept material entropy %.4f below the understood floor", h)
	}
}

// TestDifferentSaltsDifferentKeys: the same channel material under two
// session salts must never produce the same final key.
func TestDifferentSaltsDifferentKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	sc := trace.NewScenario(channel.Rural, channel.V2I)
	sys, _, test := buildSystem(t, sc, 63, 120, 10)
	run := func(salt string) [][]byte {
		ks := sys.NewKeyStream([]byte(salt))
		var keys [][]byte
		for _, smp := range test.Samples {
			rs, err := ks.Push(smp)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rs {
				keys = append(keys, r.BobKey)
			}
		}
		return keys
	}
	k1 := run("session-one")
	k2 := run("session-two")
	if len(k1) == 0 || len(k1) != len(k2) {
		t.Fatalf("key counts: %d vs %d", len(k1), len(k2))
	}
	for i := range k1 {
		if string(k1[i]) == string(k2[i]) {
			t.Fatal("same material under different salts produced the same key")
		}
	}
}
