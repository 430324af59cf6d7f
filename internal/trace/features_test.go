package trace

import (
	"math"
	"testing"
)

// buildFromRun is the reference Build: full receptions from Run, then
// ArRSSI and EveArRSSI over them.
func buildFromRun(sc Scenario, seed int64, n, seqLen int, cfg ExtractConfig) *Dataset {
	cfg = cfg.normalize()
	perSample := seqLen / cfg.Blocks
	ex := NewCollector(sc, seed).Run(n * perSample)
	alice, bob := ArRSSI(ex, cfg)
	eveE := EveArRSSI(ex, cfg, false)
	eveI := EveArRSSI(ex, cfg, true)
	ds := &Dataset{Scenario: sc, SeqLen: seqLen, blockSize: cfg.Blocks}
	for s := 0; s < n; s++ {
		var smp Sample
		for e := s * perSample; e < (s+1)*perSample; e++ {
			smp.Alice = append(smp.Alice, alice[e]...)
			smp.Bob = append(smp.Bob, bob[e]...)
			smp.EveEavesdrop = append(smp.EveEavesdrop, eveE[e]...)
			smp.EveImitate = append(smp.EveImitate, eveI[e]...)
			smp.Duration += ex[e].Duration
		}
		ds.Samples = append(ds.Samples, smp)
	}
	ds.fitNormalization()
	return ds
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestBuildMatchesRunFeatures: Build's edge-only synthesis yields
// bit-identical samples (all four feature sequences and the duration)
// and normalization constants to features extracted from Run's full
// receptions, for every scenario and a spread of extraction configs.
func TestBuildMatchesRunFeatures(t *testing.T) {
	const n = 2
	for _, sc := range Scenarios() {
		for _, frac := range []float64{0.01, 0.1, 0.5, 1.0} {
			for _, blocks := range []int{1, 4, 7} {
				cfg := ExtractConfig{WindowFraction: frac, Blocks: blocks}
				seqLen := 3 * blocks
				got, err := Build(sc, 11, n, seqLen, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := buildFromRun(sc, 11, n, seqLen, cfg)
				if math.Float64bits(got.Mean) != math.Float64bits(want.Mean) ||
					math.Float64bits(got.Std) != math.Float64bits(want.Std) {
					t.Fatalf("%s %+v: Mean/Std %v/%v, want %v/%v", sc.Name, cfg, got.Mean, got.Std, want.Mean, want.Std)
				}
				for i, g := range got.Samples {
					w := want.Samples[i]
					if !sameBits(g.Alice, w.Alice) || !sameBits(g.Bob, w.Bob) ||
						!sameBits(g.EveEavesdrop, w.EveEavesdrop) || !sameBits(g.EveImitate, w.EveImitate) ||
						math.Float64bits(g.Duration) != math.Float64bits(w.Duration) {
						t.Fatalf("%s %+v: sample %d differs from the Run-derived one", sc.Name, cfg, i)
					}
				}
			}
		}
	}
}

// TestFeaturesLeaveCollectorAsRun: after Features the collector stands
// exactly where Run would have left it, so later rounds agree too.
func TestFeaturesLeaveCollectorAsRun(t *testing.T) {
	for _, sc := range Scenarios() {
		viaRun, viaFeatures := NewCollector(sc, 5), NewCollector(sc, 5)
		viaRun.Run(3)
		viaFeatures.Features(3, DefaultExtract())
		a, b := viaRun.Run(1)[0], viaFeatures.Run(1)[0]
		if a.Index != b.Index || math.Float64bits(a.Duration) != math.Float64bits(b.Duration) ||
			!sameBits(a.BobRx.RRSSI, b.BobRx.RRSSI) || !sameBits(a.AlcRx.RRSSI, b.AlcRx.RRSSI) ||
			!sameBits(a.EveEavesdropRx.RRSSI, b.EveEavesdropRx.RRSSI) || !sameBits(a.EveImitateRx.RRSSI, b.EveImitateRx.RRSSI) {
			t.Fatalf("%s: the round after Features differs from the round after Run", sc.Name)
		}
	}
}
