package reconcile

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/rng"
)

// FuzzBloomFilter checks round-trip and mismatch preservation on
// arbitrary keys and salts.
func FuzzBloomFilter(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1}, []byte("salt"))
	f.Fuzz(func(t *testing.T, rawKey, salt []byte) {
		if len(rawKey) == 0 || len(rawKey) > 512 {
			return
		}
		key := make([]byte, len(rawKey))
		for i, b := range rawKey {
			key[i] = b & 1
		}
		bf := NewBloomFilter(len(key), salt)
		tr := bf.Transform(key)
		back := bf.Inverse(tr)
		for i := range key {
			if back[i] != key[i] {
				t.Fatalf("round trip failed at %d", i)
			}
		}
	})
}

// peerCode decodes fuzzer bytes as the float64 code vector a peer
// sent, eight little-endian bytes per value, so every bit pattern
// (NaN, ±Inf, subnormals) and every length is reachable.
func peerCode(raw []byte) []float64 {
	code := make([]float64, len(raw)/8)
	for i := range code {
		code[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return code
}

// codeBytes is peerCode's inverse, for building seeds.
func codeBytes(code ...float64) []byte {
	var raw []byte
	for _, v := range code {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
	}
	return raw
}

// fill returns n copies of v.
func fill(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// keyBits maps fuzzer bytes to a key of 0/1 bits.
func keyBits(raw []byte) []byte {
	key := make([]byte, len(raw))
	for i, b := range raw {
		key[i] = b & 1
	}
	return key
}

// checkCorrected fails unless a correction half returned an error or
// an n-bit block.
func checkCorrected(t *testing.T, out []byte, err error, n int, wellFormed bool) {
	t.Helper()
	if err != nil {
		if wellFormed {
			t.Fatalf("well-formed input rejected: %v", err)
		}
		return
	}
	if !wellFormed {
		t.Fatal("malformed input accepted")
	}
	if len(out) != n {
		t.Fatalf("corrected block has %d bits, want %d", len(out), n)
	}
	for i, b := range out {
		if b > 1 {
			t.Fatalf("corrected bit %d = %d", i, b)
		}
	}
}

// FuzzCS feeds Alice's CS half arbitrary peer syndromes: wrong
// lengths, NaN and ±Inf included. It must return an error or an n-bit
// block, never panic.
func FuzzCS(f *testing.F) {
	cfg := DefaultCSConfig()
	key := []byte{1, 0, 1, 0, 1, 1, 0, 0}
	f.Add(key, codeBytes(CSEncode([]byte{1, 0, 1, 1, 1, 1, 0, 0}, cfg)...))
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64} {
		f.Add(key, codeBytes(fill(cfg.Rows, v)...))
	}
	f.Add(key, codeBytes(fill(cfg.Rows-1, 0)...))
	f.Add(key, codeBytes(fill(cfg.Rows+1, 0)...))
	f.Fuzz(func(t *testing.T, rawKey, rawCode []byte) {
		if len(rawKey) == 0 || len(rawKey) > 128 {
			return
		}
		code := peerCode(rawCode)
		out, err := CSISTACorrect(keyBits(rawKey), code, cfg)
		checkCorrected(t, out, err, len(rawKey), len(code) == cfg.Rows)
	})
}

// FuzzAEAliceCorrect does the same for the autoencoder's correction
// half, whose block length is fixed by the model.
func FuzzAEAliceCorrect(f *testing.F) {
	ae := NewAE(AEConfig{KeyBits: 32, CodeDim: 8, DecoderUnits: 4}, rng.New(1))
	key := rng.New(2).Bits(32)
	code, _, err := ae.BobEncode(flipBits(key, 2, rng.New(3)), []byte("salt"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(key, codeBytes(code...), []byte("salt"))
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64} {
		f.Add(key, codeBytes(fill(8, v)...), []byte("salt"))
	}
	f.Add(key, codeBytes(fill(7, 0)...), []byte("salt"))
	f.Add(key[:31], codeBytes(code...), []byte("salt"))
	f.Fuzz(func(t *testing.T, rawKey, rawCode, salt []byte) {
		if len(rawKey) > 64 {
			return
		}
		code := peerCode(rawCode)
		final, image, err := ae.AliceCorrect(keyBits(rawKey), code, salt)
		wellFormed := len(rawKey) == 32 && len(code) == 8
		checkCorrected(t, final, err, 32, wellFormed)
		if err == nil {
			checkCorrected(t, image, nil, 32, true)
		}
	})
}
