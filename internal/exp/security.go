package exp

import (
	"repro/internal/amplify"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/nist"
	"repro/internal/rng"
	"repro/internal/trace"
)

func init() {
	register("fig15", Fig15)
	register("fig16", Fig16)
	register("tab2", Table2)
}

// Fig15 regenerates Fig. 15: Eve's agreement rate under the eavesdropping
// and imitating attacks, one work unit per environment.
func Fig15(cfg RunConfig) (Report, error) {
	r := Report{
		ID:     "fig15",
		Title:  "Security analysis: attacker agreement rates",
		Header: []string{"environment", "legitimate", "eavesdropping Eve", "imitating Eve", "Eve exact keys"},
		Notes: []string{
			"paper: Eve reaches 42–51% (eavesdrop) and 48–54% (imitate)",
			"our simulated Eve retains partial large-scale correlation, so her rate sits higher, but she never completes a key (see EXPERIMENTS.md)",
		},
	}
	envs := []channel.Environment{channel.Urban, channel.Rural}
	rows, err := parMap(cfg, "fig15", len(envs), func(i int, _ *rng.Source) ([]string, error) {
		env := envs[i]
		sc := trace.NewScenario(env, channel.V2V)
		sys, _, test, err := trainFor(sc, cfg, core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		legit, err := sys.Evaluate(test, []byte("fig15"))
		if err != nil {
			return nil, err
		}
		eaves, err := sys.EvaluateEve(test, false, []byte("fig15"))
		if err != nil {
			return nil, err
		}
		imit, err := sys.EvaluateEve(test, true, []byte("fig15"))
		if err != nil {
			return nil, err
		}
		return []string{
			env.String(), pct(legit.PostKAR), pct(eaves.PostKAR), pct(imit.PostKAR),
			f("%.0f%% / %.0f%%", 100*eaves.ExactRate, 100*imit.ExactRate),
		}, nil
	})
	if err != nil {
		return Report{}, err
	}
	r.Rows = rows
	return r, nil
}

// Fig16 regenerates Fig. 16: aligned arRSSI traces of Alice, Bob and an
// imitating Eve — similar large-scale pattern, different fine structure.
func Fig16(cfg RunConfig) (Report, error) {
	r := Report{
		ID:     "fig16",
		Title:  "arRSSI of Alice, Bob and Eve (imitating)",
		Header: []string{"idx", "Alice", "Bob", "Eve"},
	}
	err := forEach(cfg, "fig16", 1, func(_ int, src *rng.Source) error {
		sc := trace.NewScenario(channel.Urban, channel.V2V)
		ft := trace.NewCollector(sc, src.Int63()).Features(24, trace.DefaultExtract(), trace.Alice|trace.Bob|trace.Eve)
		alice, bob, eve := ft.Alice, ft.Bob, ft.EveImitate
		fa, fb, fe := trace.Flatten(alice), trace.Flatten(bob), trace.Flatten(eve)
		for i := range fa {
			r.Rows = append(r.Rows, []string{f("%d", i), f("%.1f", fa[i]), f("%.1f", fb[i]), f("%.1f", fe[i])})
		}
		la, _ := trace.Correlation(alice, bob)
		le, _ := trace.Correlation(eve, bob)
		r.Notes = append(r.Notes, f("corr(Alice,Bob)=%.3f corr(Eve,Bob)=%.3f", la, le))
		return nil
	})
	if err != nil {
		return Report{}, err
	}
	return r, nil
}

// Table2 regenerates Table II: the NIST battery over amplified keys.
func Table2(cfg RunConfig) (Report, error) {
	r := Report{
		ID:     "tab2",
		Title:  "NIST statistical test suite over generated keys",
		Header: []string{"test", "p-value", "verdict"},
		Notes:  []string{"randomness is rejected below p = 0.01; the paper's keys pass every test"},
	}
	err := forEach(cfg, "tab2", 1, func(_ int, _ *rng.Source) error {
		sc := trace.NewScenario(channel.Urban, channel.V2V)
		sys, _, test, err := trainFor(sc, cfg, core.DefaultConfig())
		if err != nil {
			return err
		}
		// Concatenate amplified key bits across blocks into one stream.
		var stream []byte
		ks := sys.NewKeyStream([]byte("tab2"))
		for _, smp := range test.Samples {
			results, err := ks.Push(smp)
			if err != nil {
				return err
			}
			for _, res := range results {
				stream = append(stream, amplify.UnpackBits(res.BobKey, amplify.KeyBits)...)
			}
		}
		if len(stream) < nist.MinBits {
			return f2err("tab2 needs more key material: got %d bits", len(stream))
		}
		results, err := nist.Battery(stream)
		if err != nil {
			return err
		}
		for _, res := range results {
			verdict := "PASS"
			if !res.Passed {
				verdict = "FAIL"
			}
			r.Rows = append(r.Rows, []string{res.Name, f("%.6f", res.P), verdict})
		}
		r.Notes = append(r.Notes, f("stream length: %d bits from %d keys", len(stream), len(stream)/amplify.KeyBits))
		return nil
	})
	if err != nil {
		return Report{}, err
	}
	return r, nil
}

type strErr string

func (e strErr) Error() string { return string(e) }

func f2err(format string, args ...interface{}) error { return strErr(f(format, args...)) }
