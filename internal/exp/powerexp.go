package exp

import (
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/trace"
)

func init() {
	register("tab3", Table3)
	register("fig17", Fig17)
}

// profileOnce trains a small system (served from the cache when another
// figure already trained it) and profiles one key round. Table3 and
// Fig17 share one memoized profile per run configuration.
//
// In quick/regression mode the per-stage durations come from
// power.ModelProfile's deterministic operation-count model, so the
// report is a pure function of the seed — the property the parallel
// equivalence tests assert. At the full configuration the durations are
// measured on the host, matching the paper's methodology; those reports
// are *statistically* stable but not bit-reproducible.
func profileOnce(cfg RunConfig) ([]power.Measurement, error) {
	return memo("profile", cfg, func() ([]power.Measurement, error) {
		sc := trace.NewScenario(channel.Urban, channel.V2I)
		sysCfg := core.DefaultConfig()
		// The default configuration every figure trains: a BiLSTM of 16
		// units per direction (sysCfg.Hidden), not the paper's 128.
		// Timing depends only on that architecture.
		sys, _, test, err := trainFor(sc, cfg, sysCfg)
		if err != nil {
			return nil, err
		}
		if cfg.Quick {
			return power.ModelProfile(sys), nil
		}
		return power.Profile(sys, test.Samples[0], 30)
	})
}

// timingNote states which timing source the profile rows used.
func timingNote(cfg RunConfig) string {
	if cfg.Quick {
		return "quick mode: times are modeled from operation counts (deterministic), not measured"
	}
	return "times below are measured on this host; energy uses the Pi 4 per-stage draws"
}

// Table3 regenerates Table III: per-stage computation time and energy.
func Table3(cfg RunConfig) (Report, error) {
	ms, err := profileOnce(cfg)
	if err != nil {
		return Report{}, err
	}
	r := Report{
		ID:     "tab3",
		Title:  "Computation time and energy per 128-bit key",
		Header: []string{"side", "stage", "time (ms)", "energy (mJ)"},
		Notes: []string{
			"paper (Raspberry Pi 4): Alice 3.41 ms / 13.0 mJ, Bob 0.43 ms / 1.47 mJ",
			timingNote(cfg),
		},
	}
	for _, m := range ms {
		r.Rows = append(r.Rows, []string{
			m.Side, m.Stage, f("%.4f", float64(m.Duration.Nanoseconds())/1e6), f("%.4f", m.EnergyMJ),
		})
	}
	for _, side := range []string{"Alice", "Bob"} {
		t := power.Totals(ms)[side]
		r.Rows = append(r.Rows, []string{
			side, "Total", f("%.4f", float64(t.Duration.Nanoseconds())/1e6), f("%.4f", t.EnergyMJ),
		})
	}
	return r, nil
}

// Fig17 regenerates Fig. 17: the power-draw trace over one key
// generation.
func Fig17(cfg RunConfig) (Report, error) {
	ms, err := profileOnce(cfg)
	if err != nil {
		return Report{}, err
	}
	r := Report{
		ID:     "fig17",
		Title:  "Power draw over one key generation (Alice)",
		Header: []string{"t (ms)", "draw (W)", "stage"},
		Notes:  []string{timingNote(cfg)},
	}
	for _, p := range power.DrawTrace(ms) {
		r.Rows = append(r.Rows, []string{f("%.4f", p.AtMS), f("%.2f", p.DrawW), p.Stage})
	}
	return r, nil
}
