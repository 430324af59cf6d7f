package core

import (
	"testing"

	"repro/internal/channel"
	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/quantize"
	"repro/internal/rng"
	"repro/internal/trace"
)

// keptAgreement measures Alice/Bob agreement over the indices both keep
// for one sample.
func keptAgreement(sys *System, alice, bob []float64) float64 {
	bits, kept, err := sys.BobQuantize(bob)
	if err != nil || len(kept) == 0 {
		return 0
	}
	aliceBits, final := sys.AliceSelect(alice, kept)
	return mathx.Agreement(aliceBits, pipeline.SelectAt(bits, kept, final, sys.SampleBits()))
}

// TestDiagTraining checks that the predictor earns its place: after 30
// epochs Alice's predicted bits agree with Bob's kept bits more often
// than her own raw sequence does through the same guard-banded
// quantizer over the intersection of kept indices (0.946 vs 0.912 on
// this dataset).
func TestDiagTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	sc := trace.NewScenario(channel.Urban, channel.V2I)
	ds, err := trace.Build(sc, 42, 300, 32, trace.DefaultExtract())
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(1)
	train, _, test := ds.Split(0.8, 0.05, src.Derive("split"))
	sys := New(DefaultConfig(), src.Derive("sys"))
	samples, err := sys.TrainSamples(train)
	if err != nil {
		t.Fatal(err)
	}
	tr := nn.NewTrainer(sys.predictorNet(), sys.Cfg.LearnRate, src.Derive("fit"))
	tr.Opt.WeightDecay = sys.Cfg.WeightDecay
	for e := 0; e < 30; e++ {
		tr.Epoch(samples)
	}
	// The trainer moved the weights behind the System's back, so its
	// cached forwards are stale.
	sys.pmemo.Purge()
	qc := sys.Cfg.quantConfig(sys.Cfg.GuardRatio)
	var pred, raw float64
	for _, smp := range test.Samples {
		pred += keptAgreement(sys, smp.Alice, smp.Bob)
		ra, _ := quantize.MultiBit(smp.Alice, qc)
		rb, _ := quantize.MultiBit(smp.Bob, qc)
		ba, bb := quantize.IntersectKept(ra, rb, sys.Cfg.BitsPerSample)
		raw += mathx.Agreement(ba, bb)
	}
	n := float64(len(test.Samples))
	t.Logf("kept-bit agreement: predicted %.4f, no prediction %.4f", pred/n, raw/n)
	if pred <= raw {
		t.Errorf("prediction does not beat Alice's raw sequence: %.4f <= %.4f", pred/n, raw/n)
	}
}

func corrOf(a, b []float64) (float64, error) {
	return mathx.Pearson(a, b)
}
