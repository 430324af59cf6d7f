package power

import (
	"testing"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/trace"
)

func TestProfileStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	sc := trace.NewScenario(channel.Urban, channel.V2I)
	ds, err := trace.Build(sc, 31, 60, 32, trace.DefaultExtract())
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(32)
	sys := core.New(core.DefaultConfig(), src)
	if _, err := sys.Train(ds, 3, src.Derive("t")); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sys.SetRecorder(reg)
	ms, err := Profile(sys, ds.Samples[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	// Alice's row times the forward itself: each of the 5 timed calls
	// and the final untimed one miss the predictor memo.
	if n := reg.Snapshot().Histograms[obs.NNForwardSeconds].Count; n != 6 {
		t.Errorf("Profile ran %d predictor forwards, want 6 (one per call, no memo hits)", n)
	}
	if len(ms) != 6 {
		t.Fatalf("want 6 measurements, got %d", len(ms))
	}
	totals := Totals(ms)
	alice, bob := totals["Alice"], totals["Bob"]
	// Table III's structural claim: Alice (running the prediction
	// network) costs far more than Bob (quantizer + encoder only).
	if alice.Duration <= bob.Duration {
		t.Errorf("Alice total %v should exceed Bob total %v", alice.Duration, bob.Duration)
	}
	if alice.EnergyMJ <= 0 || bob.EnergyMJ <= 0 {
		t.Error("energies must be positive")
	}
	tr := DrawTrace(ms)
	if len(tr) < 4 {
		t.Errorf("draw trace too short: %d points", len(tr))
	}
}
