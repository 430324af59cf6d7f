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

// TestDiagTraining is a tuning harness: it reports train/test kept-bit
// agreement per training stage plus the no-prediction baseline.
func TestDiagTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("tuning harness")
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
	acc := func(ds *trace.Dataset) float64 {
		var a float64
		for _, smp := range ds.Samples {
			a += keptAgreement(sys, smp.Alice, smp.Bob)
		}
		return a / float64(len(ds.Samples))
	}
	for e := 0; e < 60; e++ {
		loss := tr.Epoch(samples)
		// The trainer moves the weights behind the System's back, so
		// its cached forwards are stale.
		sys.pmemo.Purge()
		if (e+1)%10 == 0 {
			t.Logf("epoch %d loss %.4f trainAcc %.4f testAcc %.4f", e+1, loss, acc(train), acc(test))
		}
	}
	// No-prediction baseline: Alice quantizes her own sequence with the
	// same guard-banded quantizer; agreement over the intersection of
	// kept indices.
	var raw float64
	for _, smp := range test.Samples {
		qc := sys.Cfg.quantConfig(sys.Cfg.GuardRatio)
		ra, _ := quantize.MultiBit(smp.Alice, qc)
		rb, _ := quantize.MultiBit(smp.Bob, qc)
		ba, bb := quantize.IntersectKept(ra, rb, sys.Cfg.BitsPerSample)
		raw += mathx.Agreement(ba, bb)
	}
	t.Logf("no-prediction kept-intersection agreement: %.4f", raw/float64(len(test.Samples)))
}

func corrOf(a, b []float64) (float64, error) {
	return mathx.Pearson(a, b)
}
