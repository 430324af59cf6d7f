package core

import (
	"testing"

	"repro/internal/channel"
	"repro/internal/mathx"
	"repro/internal/pipeline"
	"repro/internal/quantize"
	"repro/internal/rng"
	"repro/internal/trace"
)

// TestBitSourceVariants checks why Alice takes her bits from the
// sigmoid head: at the pipeline's selection they agree with Bob's more
// often than bits from quantizing the predicted sequence (0.958 vs
// 0.944 on this dataset).
func TestBitSourceVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	sc := trace.NewScenario(channel.Urban, channel.V2I)
	ds, err := trace.Build(sc, 43, 250, 32, trace.DefaultExtract())
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(44)
	train, _, test := ds.Split(0.75, 0.05, src.Derive("split"))
	sys := New(DefaultConfig(), src.Derive("sys"))
	if _, err := sys.Train(train, 40, src.Derive("train")); err != nil {
		t.Fatal(err)
	}
	var headAgree, seqAgree, keep float64
	b := sys.Cfg.BitsPerSample
	for _, smp := range test.Samples {
		bobBits, bobKept, err := sys.BobQuantize(smp.Bob)
		if err != nil {
			t.Fatal(err)
		}
		yHat, _ := sys.predictorNet().Forward(smp.Alice)
		headBits, finalKept := sys.AliceSelect(smp.Alice, bobKept)
		bobFinal := pipeline.SelectAt(bobBits, bobKept, finalKept, b)
		headAgree += mathx.Agreement(headBits, bobFinal)
		// Variant: quantize yHat (no guard) and select the same indices.
		qc := sys.Cfg.quantConfig(0)
		resY, err := quantize.MultiBit(yHat, qc)
		if err != nil {
			t.Fatal(err)
		}
		seqBits := pipeline.SelectAt(resY.Bits, resY.Kept, finalKept, b)
		seqAgree += mathx.Agreement(seqBits, bobFinal)
		keep += float64(len(finalKept)) / float64(sys.Cfg.SeqLen)
	}
	n := float64(len(test.Samples))
	t.Logf("head bits agree=%.4f, quantized-yHat bits agree=%.4f, keep=%.3f",
		headAgree/n, seqAgree/n, keep/n)
	if headAgree <= seqAgree {
		t.Errorf("head bits agree %.4f <= quantized-yHat bits %.4f", headAgree/n, seqAgree/n)
	}
}

// TestPredictionQuality checks that the default predictor (H=16, 40
// epochs) tracks Bob's sequence better than Alice's own measurement
// does: corr(ŷ, Bob) above corr(Alice, Bob) (0.811 vs 0.796 on this
// dataset).
func TestPredictionQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	sc := trace.NewScenario(channel.Urban, channel.V2I)
	ds, err := trace.Build(sc, 43, 250, 32, trace.DefaultExtract())
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(44)
	train, _, test := ds.Split(0.75, 0.05, src.Derive("split"))
	cfg := DefaultConfig()
	cfg.Hidden = 16
	cfg.LearnRate = 5e-3
	sys := New(cfg, src.Derive("sys"))
	if _, err := sys.Train(train, 40, src.Derive("train")); err != nil {
		t.Fatal(err)
	}
	var predCorr, rawCorr float64
	for _, smp := range test.Samples {
		yHat, _ := sys.predictorNet().Forward(smp.Alice)
		pc, _ := corrOf(yHat, smp.Bob)
		rc, _ := corrOf(smp.Alice, smp.Bob)
		predCorr += pc
		rawCorr += rc
	}
	n := float64(len(test.Samples))
	t.Logf("corr(yHat,bob)=%.4f corr(alice,bob)=%.4f", predCorr/n, rawCorr/n)
	if predCorr <= rawCorr {
		t.Errorf("corr(yHat,bob) %.4f <= corr(alice,bob) %.4f", predCorr/n, rawCorr/n)
	}
}
