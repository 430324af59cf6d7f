package core

import (
	"bytes"
	"testing"

	"repro/internal/channel"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/trace"
)

// TestTrainMatchesSequentialFits trains a tiny system through
// System.Train, whose reconciler fit runs on its own goroutine beside
// the predictor fit, and a twin by calling the two fits one after the
// other on streams derived in the same order ("fit", then "ae-fit").
// The saved weights must be identical. The test is small enough for
// -short, so the race detector's short pass watches the two fits run
// side by side.
func TestTrainMatchesSequentialFits(t *testing.T) {
	ds, err := trace.Build(trace.NewScenario(channel.Urban, channel.V2I), 5, 12, 32, trace.DefaultExtract())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Hidden, cfg.AEEpochs, cfg.AESamples = 4, 2, 6
	const epochs = 2

	sys := New(cfg, rng.New(6))
	if _, err := sys.Train(ds, epochs, rng.New(7)); err != nil {
		t.Fatal(err)
	}

	twin := New(cfg, rng.New(6))
	samples, err := twin.TrainSamples(ds)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(7)
	twin.Stages.Predictor.(pipeline.TrainablePredictor).Fit(samples, epochs, cfg.LearnRate, cfg.WeightDecay, src.Derive("fit"))
	twin.Stages.Reconciler.(pipeline.TrainableReconciler).Fit(src.Derive("ae-fit"))

	var got, want bytes.Buffer
	if err := sys.Save(&got); err != nil {
		t.Fatal(err)
	}
	if err := twin.Save(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("System.Train weights differ from the sequential fits")
	}
}
