package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/trace"
)

// windowsDigest hashes the float bits of both sides' windows.
func windowsDigest(alice, bob [][]float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, side := range [][][]float64{alice, bob} {
		for _, w := range side {
			for _, v := range w {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSessionWindowsGoldenDigest pins the exact windows SessionWindows
// derives for fixed (seed, vehicle) pairs. The digests were captured
// when every register read of every reception was synthesized; the
// edge-only derivation must reproduce them bit for bit, and so must the
// one-side derivations each endpoint runs (Alice-only and Bob-only,
// combined).
func TestSessionWindowsGoldenDigest(t *testing.T) {
	sc := trace.NewScenario(channel.Urban, channel.V2I)
	cfg := core.DefaultConfig()
	for _, g := range []struct {
		seed    int64
		vehicle uint64
		n       int
		digest  string
	}{
		{21, 7, 8, "e481bbbe4b049ed4f6c126cb91210b0dfe3fce595d1e6c1fcb5fa23503508b93"},
		{1, 0, 4, "40c31b33c436f10a567a9b731708b471db79749d2377c1bbbe46dab36a48afc6"},
		{1, 1 << 40, 2, "bc77235df85b9bf2087448a7f0288dbdbdd19ba8e081c9bab8eff346a51dca8c"},
	} {
		alice, bob, err := SessionWindows(sc, cfg, g.seed, g.vehicle, g.n)
		if err != nil {
			t.Fatal(err)
		}
		if got := windowsDigest(alice, bob); got != g.digest {
			t.Errorf("seed %d vehicle %d: digest %s, want %s", g.seed, g.vehicle, got, g.digest)
		}
		aliceOnly, noBob, err := SessionWindowsFor(sc, cfg, g.seed, g.vehicle, g.n, trace.Alice)
		if err != nil {
			t.Fatal(err)
		}
		noAlice, bobOnly, err := SessionWindowsFor(sc, cfg, g.seed, g.vehicle, g.n, trace.Bob)
		if err != nil {
			t.Fatal(err)
		}
		if noBob != nil || noAlice != nil {
			t.Errorf("seed %d vehicle %d: a one-side derivation returned the other side", g.seed, g.vehicle)
		}
		if got := windowsDigest(aliceOnly, bobOnly); got != g.digest {
			t.Errorf("seed %d vehicle %d: one-side digest %s, want %s", g.seed, g.vehicle, got, g.digest)
		}
	}
}
