package core

import (
	"testing"

	"repro/internal/channel"
	"repro/internal/quantize"
	"repro/internal/rng"
	"repro/internal/trace"
)

// TestBitSourceVariants compares Alice deriving bits from the sigmoid head
// vs from quantizing the predicted sequence, at the pipeline's selection.
func TestBitSourceVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("tuning harness")
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
		yHat, _ := sys.predictorNet().ForwardBatched(smp.Alice)
		headBits, finalKept := sys.AliceSelect(smp.Alice, bobKept)
		bobFinal := SelectAt(bobBits, bobKept, finalKept, b)
		headAgree += agreement(headBits, bobFinal)
		// Variant: quantize yHat (no guard) and select the same indices.
		qc := sys.Cfg.quantConfig(0)
		resY, err := quantize.MultiBit(yHat, qc)
		if err != nil {
			t.Fatal(err)
		}
		seqBits := SelectAt(resY.Bits, resY.Kept, finalKept, b)
		seqAgree += agreement(seqBits, bobFinal)
		keep += float64(len(finalKept)) / float64(sys.Cfg.SeqLen)
	}
	n := float64(len(test.Samples))
	t.Logf("head bits agree=%.4f, quantized-yHat bits agree=%.4f, keep=%.3f",
		headAgree/n, seqAgree/n, keep/n)
}

// TestPredictionQuality reports corr(ŷ, Bob) vs corr(Alice, Bob) for a
// few model sizes/budgets.
func TestPredictionQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("tuning harness")
	}
	sc := trace.NewScenario(channel.Urban, channel.V2I)
	ds, err := trace.Build(sc, 43, 250, 32, trace.DefaultExtract())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		hidden, epochs int
		lr             float64
	}{
		{16, 40, 5e-3},
		{32, 80, 3e-3},
	} {
		src := rng.New(44)
		train, _, test := ds.Split(0.75, 0.05, src.Derive("split"))
		cfg := DefaultConfig()
		cfg.Hidden = tc.hidden
		cfg.LearnRate = tc.lr
		sys := New(cfg, src.Derive("sys"))
		if _, err := sys.Train(train, tc.epochs, src.Derive("train")); err != nil {
			t.Fatal(err)
		}
		var predCorr, rawCorr, n float64
		for _, smp := range test.Samples {
			yHat, _ := sys.predictorNet().ForwardBatched(smp.Alice)
			pc, _ := corrOf(yHat, smp.Bob)
			rc, _ := corrOf(smp.Alice, smp.Bob)
			predCorr += pc
			rawCorr += rc
			n++
		}
		t.Logf("H=%d epochs=%d: corr(yHat,bob)=%.4f corr(alice,bob)=%.4f", tc.hidden, tc.epochs, predCorr/n, rawCorr/n)
	}
}
