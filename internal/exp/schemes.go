package exp

import (
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/trace"
)

func init() {
	register("schemes", SchemesExp)
}

// SchemesExp runs every registered scheme — Vehicle-Key and the three
// baselines alike — through the unified stage interface over the same
// V2I-urban link, one work unit per scheme. It is the refactor's
// end-to-end demonstration: the rows differ only in which Stages slots
// each scheme plugs in, never in the driving code. RunConfig.Scheme
// restricts the sweep to a single name (vkbench -scheme).
func SchemesExp(cfg RunConfig) (Report, error) {
	r := Report{
		ID:     "schemes",
		Title:  "Cross-scheme sweep through the unified pipeline (V2I urban)",
		Header: []string{"scheme", "blocks", "preKAR", "postKAR", "KGR", "net KGR"},
		Notes: []string{
			"every scheme is built by core.NewScheme and evaluated by the same stage-interface driver",
		},
	}
	names := core.SchemeNames()
	if cfg.Scheme != "" {
		names = []string{cfg.Scheme}
	}
	sc := trace.NewScenario(channel.Urban, channel.V2I)
	rows, err := parMap(cfg, "schemes", len(names), func(i int, src *rng.Source) ([]string, error) {
		name := names[i]
		var m core.Metrics
		if name == core.DefaultScheme {
			// Vehicle-Key needs its trained predictor; the baselines are
			// training-free and run straight off the probing series.
			sys, _, test, err := trainFor(sc, cfg, core.DefaultConfig())
			if err != nil {
				return nil, err
			}
			if m, err = sys.Evaluate(test, []byte("schemes")); err != nil {
				return nil, err
			}
		} else {
			exch := cfg.Samples * 4
			if exch > 1200 {
				exch = 1200
			}
			col := trace.NewCollector(sc, src.Int63())
			var err error
			if m, err = evalBaseline(name, src.Derive(name), col.Run(exch)); err != nil {
				return nil, err
			}
		}
		return []string{name, f("%d", m.Blocks), pct(m.PreKAR), pct(m.PostKAR),
			f("%.3f", m.KGR), f("%.3f", m.NetKGR)}, nil
	})
	if err != nil {
		return Report{}, err
	}
	r.Rows = rows
	return r, nil
}
