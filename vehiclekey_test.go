package vehiclekey

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/rng"
	"repro/internal/trace"
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
	// Eve's views are derived on demand; both attacks must score exactly
	// as over the held-out part of a full, every-receiver build.
	_, full, err := splitWindows(session.opts, trace.Alice|trace.Bob|trace.Eve, rng.New(session.opts.Seed+1))
	if err != nil {
		t.Fatal(err)
	}
	for i, smp := range session.test.Samples {
		if fmt.Sprint(smp.Alice, smp.Bob) != fmt.Sprint(full.Samples[i].Alice, full.Samples[i].Bob) {
			t.Fatalf("held-out window %d differs from the full build's", i)
		}
	}
	for _, imitate := range []bool{false, true} {
		got, err := session.EvaluateAttack(imitate)
		if err != nil {
			t.Fatal(err)
		}
		want, err := session.sys.EvaluateEve(full, imitate, []byte("attack"))
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
			t.Errorf("imitate=%v: EvaluateAttack %+v, want %+v", imitate, got, want)
		}
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
