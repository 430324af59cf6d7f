package reconcile

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/rng"
)

// cost is an Outcome's accounting, without the keys.
type cost struct {
	Messages, SyndromeBits, ComputeOps, LeakedKeyBits int
	Method                                            string
}

func costOf(o Outcome) cost {
	return cost{o.Messages, o.SyndromeBits, o.ComputeOps, o.LeakedKeyBits, o.Method}
}

// TestLocalReconcileComposesWireHalves checks that each one-message
// scheme's in-process reconciliation is exactly its wire halves run
// back to back, over many salts and mismatch counts. The digests of
// every corrected key and the accounting fields are pinned to the
// values the separate local implementations produced before they were
// folded into the halves.
func TestLocalReconcileComposesWireHalves(t *testing.T) {
	const (
		aeDigest = "60ba36b642e3260e7860f18e73787d8d10c08f71f8f52ccad3a65847420d89c3"
		csDigest = "52f81bd31453e90ac624d965bda15a194f1831ad398c31ef5cf5d83a2b7f1eda"
	)
	aeCost := cost{Messages: 1, SyndromeBits: 2048, ComputeOps: 45200, LeakedKeyBits: 32, Method: "autoencoder"}
	csCost := cost{Messages: 1, SyndromeBits: 1280, ComputeOps: 527360, LeakedKeyBits: 20, Method: "cs-ista"}

	ae := TrainAE(AEConfig{KeyBits: 64, CodeDim: 32, DecoderUnits: 16, MaxMismatch: 0.15}, 3, 100, rng.New(5))
	cfg := DefaultCSConfig()
	hAE, hCS := sha256.New(), sha256.New()
	src := rng.New(77)
	for flips := 0; flips <= 12; flips++ {
		for i := 0; i < 16; i++ {
			kb := src.Bits(64)
			ka := flipBits(kb, flips, src)
			salt := []byte(fmt.Sprintf("salt-%d-%d", flips, i))

			out, err := ae.Reconcile(ka, kb, salt)
			if err != nil {
				t.Fatal(err)
			}
			code, bobImage, err := ae.BobEncode(kb, salt)
			if err != nil {
				t.Fatal(err)
			}
			final, aliceImage, err := ae.AliceCorrect(ka, code, salt)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.AliceKey, final) {
				t.Fatalf("ae flips=%d salt=%s: Reconcile differs from its halves", flips, salt)
			}
			if bytes.Equal(final, kb) != bytes.Equal(aliceImage, bobImage) {
				t.Fatalf("ae flips=%d salt=%s: key images disagree with the keys", flips, salt)
			}
			if costOf(out) != aeCost {
				t.Fatalf("ae outcome %+v, want %+v", costOf(out), aeCost)
			}
			hAE.Write(out.AliceKey)

			cs, err := CSISTA(ka, kb, cfg)
			if err != nil {
				t.Fatal(err)
			}
			final, err = CSISTACorrect(ka, CSEncode(kb, cfg), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cs.AliceKey, final) {
				t.Fatalf("cs flips=%d trial=%d: CSISTA differs from its halves", flips, i)
			}
			if costOf(cs) != csCost {
				t.Fatalf("cs outcome %+v, want %+v", costOf(cs), csCost)
			}
			hCS.Write(cs.AliceKey)
		}
	}
	if got := hex.EncodeToString(hAE.Sum(nil)); got != aeDigest {
		t.Errorf("ae corrected-key digest %s, want %s", got, aeDigest)
	}
	if got := hex.EncodeToString(hCS.Sum(nil)); got != csDigest {
		t.Errorf("cs corrected-key digest %s, want %s", got, csDigest)
	}
}
