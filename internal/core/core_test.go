package core

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/channel"
	"repro/internal/mathx"
	"repro/internal/pipeline"
	"repro/internal/quantize"
	"repro/internal/rng"
	"repro/internal/trace"
)

// buildSystem trains a small Vehicle-Key instance on one scenario and
// returns it with train/test splits. Shared by several tests.
func buildSystem(t *testing.T, sc trace.Scenario, seed int64, nSamples, epochs int) (*System, *trace.Dataset, *trace.Dataset) {
	t.Helper()
	ds, err := trace.Build(sc, seed, nSamples, 32, trace.DefaultExtract())
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(seed + 1)
	train, _, test := ds.Split(0.75, 0.05, src.Derive("split"))
	sys := New(DefaultConfig(), src.Derive("sys"))
	if _, err := sys.Train(train, epochs, src.Derive("train")); err != nil {
		t.Fatal(err)
	}
	return sys, train, test
}

func TestEndToEndKeyGeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	sc := trace.NewScenario(channel.Urban, channel.V2I)
	sys, _, test := buildSystem(t, sc, 42, 500, 30)
	m, err := sys.Evaluate(test, []byte("e2e"))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("V2I-urban: %v", m)
	if m.Blocks == 0 {
		t.Fatal("no key blocks emitted")
	}
	if m.PostKAR < 0.95 {
		t.Errorf("post-reconciliation KAR %.4f below 0.95", m.PostKAR)
	}
	if m.PreKAR < 0.85 {
		t.Errorf("pre-reconciliation KAR %.4f below 0.85", m.PreKAR)
	}
}

func TestPredictionImprovesAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	sc := trace.NewScenario(channel.Urban, channel.V2I)
	sys, _, test := buildSystem(t, sc, 43, 500, 30)

	// Toggle only the prediction module, everything else equal (the
	// paper's Fig. 10 ablation): with = guard on the predicted sequence +
	// head bits; without = the same guard and quantizer on Alice's raw
	// sequence.
	b := sys.Cfg.BitsPerSample
	var withA, withK, woA, woK float64
	for _, smp := range test.Samples {
		bobBits, bobKept, err := sys.BobQuantize(smp.Bob)
		if err != nil {
			t.Fatal(err)
		}
		aliceBits, finalKept := sys.AliceSelect(smp.Alice, bobKept)
		bobFinal := pipeline.SelectAt(bobBits, bobKept, finalKept, b)
		withA += mathx.Agreement(aliceBits, bobFinal)
		withK += float64(len(finalKept)) / float64(sys.Cfg.SeqLen)

		res, err := quantize.MultiBit(smp.Alice, sys.Cfg.quantConfig(sys.Cfg.PredGuardRatio))
		if err != nil {
			t.Fatal(err)
		}
		rawKept := intersect(res.Kept, bobKept)
		rawBits := pipeline.SelectAt(res.Bits, res.Kept, rawKept, b)
		bobRaw := pipeline.SelectAt(bobBits, bobKept, rawKept, b)
		woA += mathx.Agreement(rawBits, bobRaw)
		woK += float64(len(rawKept)) / float64(sys.Cfg.SeqLen)
	}
	n := float64(len(test.Samples))
	t.Logf("with prediction: agree=%.4f keep=%.3f | without: agree=%.4f keep=%.3f",
		withA/n, withK/n, woA/n, woK/n)
	if withA <= woA {
		t.Errorf("prediction should improve agreement: with=%.4f without=%.4f", withA/n, woA/n)
	}
}

func intersect(a, b []int) []int {
	in := make(map[int]bool, len(b))
	for _, x := range b {
		in[x] = true
	}
	var out []int
	for _, x := range a {
		if in[x] {
			out = append(out, x)
		}
	}
	return out
}

func TestEveStaysNearChance(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	sc := trace.NewScenario(channel.Urban, channel.V2V)
	sys, _, test := buildSystem(t, sc, 44, 500, 30)

	legit, err := sys.Evaluate(test, []byte("s"))
	if err != nil {
		t.Fatal(err)
	}
	eveEaves, err := sys.EvaluateEve(test, false, []byte("s"))
	if err != nil {
		t.Fatal(err)
	}
	eveImit, err := sys.EvaluateEve(test, true, []byte("s"))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("legit postKAR=%.4f eavesdrop=%.4f imitate=%.4f",
		legit.PostKAR, eveEaves.PostKAR, eveImit.PostKAR)
	if legit.PostKAR-eveEaves.PostKAR < 0.2 {
		t.Errorf("eavesdropping Eve agreement %.4f too close to legit %.4f", eveEaves.PostKAR, legit.PostKAR)
	}
	if legit.PostKAR-eveImit.PostKAR < 0.2 {
		t.Errorf("imitating Eve agreement %.4f too close to legit %.4f", eveImit.PostKAR, legit.PostKAR)
	}
	if eveEaves.ExactRate > 0 || eveImit.ExactRate > 0 {
		t.Error("Eve must never recover an exact key")
	}
}

func TestSystemSaveLoad(t *testing.T) {
	src := rng.New(9)
	sys := New(DefaultConfig(), src)
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sys2 := New(DefaultConfig(), rng.New(10))
	if err := sys2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	seq := make([]float64, sys.Cfg.SeqLen)
	for i := range seq {
		seq[i] = src.Normal(0, 1)
	}
	kept := []int{0, 3, 5, 8, 13, 21, 30}
	a, aKept := sys.AliceSelect(seq, kept)
	b, bKept := sys2.AliceSelect(seq, kept)
	if len(aKept) == 0 {
		t.Fatal("source kept no announced index")
	}
	if !bytes.Equal(a, b) || !slices.Equal(aKept, bKept) {
		t.Fatal("loaded system must reproduce predictions")
	}
}

func TestKeysDifferAcrossBlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	sc := trace.NewScenario(channel.Rural, channel.V2I)
	sys, _, test := buildSystem(t, sc, 45, 120, 20)
	ks := sys.NewKeyStream([]byte("uniq"))
	seen := make(map[string]bool)
	for _, smp := range test.Samples {
		results, err := ks.Push(smp)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range results {
			k := string(res.BobKey)
			if seen[k] {
				t.Fatal("two blocks produced the same key")
			}
			seen[k] = true
		}
	}
	if len(seen) == 0 {
		t.Fatal("no keys emitted")
	}
}
