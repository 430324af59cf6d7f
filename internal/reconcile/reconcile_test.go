package reconcile

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func flipBits(key []byte, k int, src *rng.Source) []byte {
	out := make([]byte, len(key))
	copy(out, key)
	perm := src.Perm(len(key))
	for i := 0; i < k && i < len(perm); i++ {
		out[perm[i]] ^= 1
	}
	return out
}

func TestBloomFilterRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		src := rng.New(seed)
		bf := NewBloomFilter(128, []byte{byte(seed), 1, 2})
		key := src.Bits(128)
		return bytes.Equal(bf.Inverse(bf.Transform(key)), key)
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestBloomFilterPreservesMismatchCount(t *testing.T) {
	f := func(seed int64, flips uint8) bool {
		src := rng.New(seed)
		k := int(flips) % 64
		bf := NewBloomFilter(128, []byte{3, byte(seed)})
		ka := src.Bits(128)
		kb := flipBits(ka, k, src)
		ta, tb := bf.Transform(ka), bf.Transform(kb)
		var before, after int
		for i := range ka {
			if ka[i] != kb[i] {
				before++
			}
			if ta[i] != tb[i] {
				after++
			}
		}
		return before == after
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestBloomFilterDifferentSaltsDiffer(t *testing.T) {
	src := rng.New(1)
	key := src.Bits(128)
	a := NewBloomFilter(128, []byte("session-a")).Transform(key)
	b := NewBloomFilter(128, []byte("session-b")).Transform(key)
	if bytes.Equal(a, b) {
		t.Fatal("different salts must yield different transforms")
	}
}

// cascadeResidual runs Cascade on a 128-bit key pair differing in flips
// positions, every draw from seed, and returns the errors left.
func cascadeResidual(t *testing.T, seed int64, flips int) int {
	t.Helper()
	src := rng.New(seed)
	ka := src.Bits(128)
	kb := flipBits(ka, flips, src.Derive("flip"))
	out, err := Cascade(kb, ka, DefaultCascadeConfig(), src.Derive("cascade"))
	if err != nil {
		t.Fatal(err)
	}
	left := 0
	for i := range out.AliceKey {
		if out.AliceKey[i] != out.BobKey[i] {
			left++
		}
	}
	return left
}

// TestCascadeConvergesToEqualKeys asserts the property four passes of
// Cascade without backtracking actually have, over a fixed grid of
// seeds. A single error always lands in an odd-parity pass-1 block, so
// it is always corrected. From two errors on, an even number of them
// can share a block in every pass and survive, so only the share of
// runs left with errors is bounded. Whatever survives is even: after
// the last pass every block holds an even number of errors.
func TestCascadeConvergesToEqualKeys(t *testing.T) {
	// Over seeds 0..19999 the share of runs left with errors grows from
	// 0 (one flip) to 0.44 % (15 flips); the bound leaves room above it.
	const seeds, maxResidualRate = 2000, 0.01
	for flips := 0; flips <= 15; flips++ {
		failed := 0
		for seed := int64(0); seed < seeds; seed++ {
			left := cascadeResidual(t, seed, flips)
			if left%2 != 0 || left > flips {
				t.Fatalf("seed %d, %d flips: %d residual errors, want an even count ≤ flips", seed, flips, left)
			}
			if left > 0 && flips <= 1 {
				t.Fatalf("seed %d, %d flips: %d residual errors, want none", seed, flips, left)
			}
			if left > 0 {
				failed++
			}
		}
		if rate := float64(failed) / seeds; rate > maxResidualRate {
			t.Errorf("%d flips: %d of %d runs left errors (%.2f%%), bound %.0f%%",
				flips, failed, seeds, 100*rate, 100*maxResidualRate)
		}
	}
	// The input an unseeded property check once drew: 14 flips two of
	// which share a block in every pass (agreement 126/128).
	if left := cascadeResidual(t, 8378129636448620527, 0x6e%16); left != 2 {
		t.Errorf("replay input: %d residual errors, want 2", left)
	}
}

func TestCascadeCountsExchanges(t *testing.T) {
	src := rng.New(2)
	ka := src.Bits(128)
	kb := flipBits(ka, 8, src)
	out, err := Cascade(kb, ka, DefaultCascadeConfig(), src)
	if err != nil {
		t.Fatal(err)
	}
	if out.Messages < 10 {
		t.Errorf("cascade should need many interactive messages, got %d", out.Messages)
	}
	if out.Method != "cascade" {
		t.Errorf("method = %q", out.Method)
	}
}

func TestCSISTACorrectsSparseMismatch(t *testing.T) {
	src := rng.New(31)
	for _, flips := range []int{0, 1, 2} {
		ka := src.Bits(64)
		kb := flipBits(ka, flips, src)
		out, err := CSISTA(kb, ka, DefaultCSConfig())
		if err != nil {
			t.Fatal(err)
		}
		if out.Agreement() < 0.95 {
			t.Errorf("ISTA at %d flips: agreement %.3f", flips, out.Agreement())
		}
	}
}

func TestCSDegradesGracefullyWhenDense(t *testing.T) {
	src := rng.New(4)
	ka := src.Bits(64)
	kb := flipBits(ka, 25, src) // way beyond M/2 sparsity
	out, err := CSISTA(kb, ka, DefaultCSConfig())
	if err != nil {
		t.Fatal(err)
	}
	if out.Agreement() < 0.3 {
		t.Errorf("CS should not corrupt most bits: agreement %.3f", out.Agreement())
	}
}

func trainSmallAE(t *testing.T) *AE {
	t.Helper()
	cfg := AEConfig{KeyBits: 64, CodeDim: 32, DecoderUnits: 16, MaxMismatch: 0.15}
	return TrainAE(cfg, 10, 200, rng.New(5))
}

func TestAECorrectsMismatches(t *testing.T) {
	if testing.Short() {
		t.Skip("AE training is slow")
	}
	ae := trainSmallAE(t)
	src := rng.New(6)
	salt := []byte("session")
	for _, tc := range []struct {
		flips    int
		minAgree float64
	}{
		{1, 0.99},
		{3, 0.97},
		{5, 0.92},
	} {
		var agree float64
		const trials = 50
		for i := 0; i < trials; i++ {
			kb := src.Bits(64)
			ka := flipBits(kb, tc.flips, src)
			out, err := ae.Reconcile(ka, kb, salt)
			if err != nil {
				t.Fatal(err)
			}
			agree += out.Agreement()
		}
		agree /= trials
		t.Logf("mean post-AE agreement at %d/64 flips: %.4f", tc.flips, agree)
		if agree < tc.minAgree {
			t.Errorf("AE agreement %.4f at %d flips below %.2f", agree, tc.flips, tc.minAgree)
		}
	}
}

func TestAEBeatsCSAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("AE training is slow")
	}
	ae := trainSmallAE(t)
	src := rng.New(17)
	const trials = 40
	var aeAgree, csAgree float64
	for i := 0; i < trials; i++ {
		kb := src.Bits(64)
		ka := flipBits(kb, 5, src)
		aeOut, err := ae.Reconcile(ka, kb, []byte("s"))
		if err != nil {
			t.Fatal(err)
		}
		csOut, err := CSISTA(ka, kb, DefaultCSConfig())
		if err != nil {
			t.Fatal(err)
		}
		aeAgree += aeOut.Agreement()
		csAgree += csOut.Agreement()
	}
	aeAgree /= trials
	csAgree /= trials
	t.Logf("agreement at 5/64 flips: AE=%.4f CS-ISTA=%.4f", aeAgree, csAgree)
	if aeAgree <= csAgree {
		t.Errorf("AE agreement %.4f should beat CS %.4f (Fig. 11)", aeAgree, csAgree)
	}
}

func TestAECheaperThanCS(t *testing.T) {
	if testing.Short() {
		t.Skip("AE training is slow")
	}
	ae := trainSmallAE(t)
	src := rng.New(7)
	kb := src.Bits(64)
	ka := flipBits(kb, 5, src)
	aeOut, err := ae.Reconcile(ka, kb, []byte("s"))
	if err != nil {
		t.Fatal(err)
	}
	csOut, err := CSISTA(ka, kb, DefaultCSConfig())
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(csOut.ComputeOps) / float64(aeOut.ComputeOps)
	t.Logf("compute ops: AE=%d CS-ISTA=%d (ratio %.1fx)", aeOut.ComputeOps, csOut.ComputeOps, ratio)
	if ratio < 5 {
		t.Errorf("AE should be ≫ cheaper than iterative CS, got %.1fx (Fig. 11 reports ~10x)", ratio)
	}
}

func TestAESaveLoadRoundTrip(t *testing.T) {
	src := rng.New(8)
	cfg := AEConfig{KeyBits: 32, CodeDim: 8, DecoderUnits: 16}
	ae := NewAE(cfg, src)
	var buf bytes.Buffer
	if err := ae.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ae2 := NewAE(cfg, rng.New(9))
	if err := ae2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	key := src.Bits(32)
	y1 := ae.EncodeRaw(key)
	y2 := ae2.EncodeRaw(key)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("loaded model disagrees at %d: %v vs %v", i, y1[i], y2[i])
		}
	}
}
