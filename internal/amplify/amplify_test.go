package amplify

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		bits := make([]byte, len(raw))
		for i, b := range raw {
			bits[i] = b & 1
		}
		return bytes.Equal(UnpackBits(PackBits(bits), len(bits)), bits)
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestAmplifyDeterministicAndContextBound(t *testing.T) {
	bits := []byte{1, 0, 1, 1, 0, 1, 0, 0, 1, 1}
	k1, err := Amplify(bits, []byte("ctx"))
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := Amplify(bits, []byte("ctx"))
	if !bytes.Equal(k1, k2) {
		t.Fatal("amplification must be deterministic")
	}
	k3, _ := Amplify(bits, []byte("other"))
	if bytes.Equal(k1, k3) {
		t.Fatal("different context must give a different key")
	}
	if len(k1) != KeyBits/8 {
		t.Fatalf("key length %d, want %d", len(k1), KeyBits/8)
	}
}

func TestAmplifySingleBitAvalanche(t *testing.T) {
	bits := make([]byte, 128)
	bits[5] = 1
	k1, _ := Amplify(bits, nil)
	bits[77] ^= 1
	k2, _ := Amplify(bits, nil)
	diff := 0
	for i := range k1 {
		x := k1[i] ^ k2[i]
		for ; x != 0; x &= x - 1 {
			diff++
		}
	}
	if diff < 40 {
		t.Errorf("avalanche too weak: %d differing bits", diff)
	}
}

func TestAmplifyEmpty(t *testing.T) {
	if _, err := Amplify(nil, nil); err == nil {
		t.Fatal("empty material must be rejected")
	}
}

func TestExtractableBits(t *testing.T) {
	if got := ExtractableBits(256, 32); got != 192 {
		t.Errorf("extractable = %d, want 192", got)
	}
	if got := ExtractableBits(40, 32); got != 0 {
		t.Errorf("extractable = %d, want 0", got)
	}
	if !SufficientMaterial(300, 32) {
		t.Error("300-32-32 ≥ 128 should be sufficient")
	}
	if SufficientMaterial(128, 32) {
		t.Error("128 bits with 32 leaked is insufficient for a 128-bit key")
	}
}

func TestEstimateEntropy(t *testing.T) {
	// Constant stream → 0; alternating stream → order-2 catches it.
	if h := EstimateEntropy(make([]byte, 1000)); h != 0 {
		t.Errorf("constant entropy = %v", h)
	}
	alt := make([]byte, 1000)
	for i := range alt {
		alt[i] = byte(i % 2)
	}
	if h := EstimateEntropy(alt); h > 0.01 {
		t.Errorf("alternating entropy = %v, want ~0", h)
	}
	// A simple LCG-ish pseudorandom stream should score near 1.
	bits := make([]byte, 4096)
	s := uint64(12345)
	for i := range bits {
		s = s*6364136223846793005 + 1442695040888963407
		bits[i] = byte(s >> 63)
	}
	if h := EstimateEntropy(bits); h < 0.98 {
		t.Errorf("pseudorandom entropy = %v, want ~1", h)
	}
}
