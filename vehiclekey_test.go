package vehiclekey

import (
	"bytes"
	"testing"
)

func quickOptions(seed int64) Options {
	return Options{Seed: seed, TrainingWindows: 160, TrainingEpochs: 12}
}

func TestSetupAndGenerate(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	session, err := SetupWith(quickOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	keys, m, err := session.GenerateKeys(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) == 0 {
		t.Fatal("no keys generated")
	}
	for _, k := range keys {
		if len(k.Bits) != 16 {
			t.Errorf("key length %d, want 16 bytes", len(k.Bits))
		}
	}
	if m.Blocks != len(keys) {
		t.Errorf("metrics blocks %d != keys %d", m.Blocks, len(keys))
	}
	t.Logf("metrics: %v", m)
}

func TestAttackEvaluation(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	session, err := SetupWith(quickOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	legit, err := session.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	eve, err := session.EvaluateAttack(true)
	if err != nil {
		t.Fatal(err)
	}
	if eve.PostKAR >= legit.PostKAR {
		t.Errorf("Eve %.3f should trail legitimate %.3f", eve.PostKAR, legit.PostKAR)
	}
	if eve.ExactRate > 0 {
		t.Error("Eve must not complete keys")
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	session, err := SetupWith(quickOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := session.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	if err := session.LoadModel(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestWindowsAligned(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	session, err := SetupWith(quickOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	alice, bob := session.Windows(5)
	if len(alice) != len(bob) || len(alice) == 0 {
		t.Fatalf("window counts: %d vs %d", len(alice), len(bob))
	}
	for i := range alice {
		if len(alice[i]) != len(bob[i]) {
			t.Errorf("window %d lengths differ", i)
		}
	}
}
