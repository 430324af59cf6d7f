package trace

import (
	"math"
	"testing"
)

const allReceivers = Alice | Bob | Eve

// runFeatures is the reference Features: n rounds of full receptions
// from Run, then ArRSSI and EveArRSSI over them, for every receiver.
func runFeatures(c *Collector, n int, cfg ExtractConfig) Features {
	cfg = cfg.normalize()
	ex := c.Run(n)
	f := Features{EveEavesdrop: EveArRSSI(ex, cfg, false), EveImitate: EveArRSSI(ex, cfg, true)}
	f.Alice, f.Bob = ArRSSI(ex, cfg)
	for _, e := range ex {
		f.Duration = append(f.Duration, e.Duration)
	}
	return f
}

// only keeps the sides of f that rx selects.
func only(f Features, rx Receivers) Features {
	if rx&Alice == 0 {
		f.Alice = nil
	}
	if rx&Bob == 0 {
		f.Bob = nil
	}
	if rx&Eve == 0 {
		f.EveEavesdrop, f.EveImitate = nil, nil
	}
	return f
}

// datasetFrom is the reference BuildFor assembly: n samples of seqLen
// features over per-round features, then the normalization fit.
func datasetFrom(sc Scenario, ft Features, n, seqLen int, cfg ExtractConfig) *Dataset {
	cfg = cfg.normalize()
	perSample := seqLen / cfg.Blocks
	ds := &Dataset{Scenario: sc, SeqLen: seqLen, blockSize: cfg.Blocks}
	for s := 0; s < n; s++ {
		var smp Sample
		for e := s * perSample; e < (s+1)*perSample; e++ {
			if ft.Alice != nil {
				smp.Alice = append(smp.Alice, ft.Alice[e]...)
			}
			if ft.Bob != nil {
				smp.Bob = append(smp.Bob, ft.Bob[e]...)
			}
			if ft.EveEavesdrop != nil {
				smp.EveEavesdrop = append(smp.EveEavesdrop, ft.EveEavesdrop[e]...)
				smp.EveImitate = append(smp.EveImitate, ft.EveImitate[e]...)
			}
			smp.Duration += ft.Duration[e]
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

func sameRounds(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameFeatures(a, b Features) bool {
	return sameRounds(a.Alice, b.Alice) && sameRounds(a.Bob, b.Bob) &&
		sameRounds(a.EveEavesdrop, b.EveEavesdrop) && sameRounds(a.EveImitate, b.EveImitate) &&
		sameBits(a.Duration, b.Duration)
}

// TestBuildMatchesRunFeatures: for every subset of receivers, every
// scenario and a spread of extraction configs, Features and BuildFor
// yield each selected side bit-identical to features extracted from
// Run's full receptions (per round, and as normalized samples with
// their durations and Mean/Std), leave each unselected side empty, and
// leave the collector where Run does: one further full round on both
// collectors yields the same features. With -short only DefaultExtract
// runs (still every receiver subset and scenario); the full fraction ×
// blocks grid covers the ranged, batched register reads at every
// window size.
func TestBuildMatchesRunFeatures(t *testing.T) {
	const n, seed = 2, 11
	cfgs := []ExtractConfig{DefaultExtract()}
	if !testing.Short() {
		cfgs = cfgs[:0]
		for _, frac := range []float64{0.01, 0.1, 0.5, 1.0} {
			for _, blocks := range []int{1, 4, 7} {
				cfgs = append(cfgs, ExtractConfig{WindowFraction: frac, Blocks: blocks})
			}
		}
	}
	for _, sc := range Scenarios() {
		for _, cfg := range cfgs {
			seqLen := 3 * cfg.Blocks
			ref := NewCollector(sc, seed)
			want := runFeatures(ref, n*3, cfg)
			wantNext := runFeatures(ref, 1, cfg)
			for rx := Receivers(0); rx <= allReceivers; rx++ {
				c := NewCollector(sc, seed)
				if got := c.Features(n*3, cfg, rx); !sameFeatures(got, only(want, rx)) {
					t.Fatalf("%s %+v rx=%03b: Features differ from the Run-derived ones", sc.Name, cfg, rx)
				}
				if got := c.Features(1, cfg, allReceivers); !sameFeatures(got, wantNext) {
					t.Fatalf("%s %+v rx=%03b: the next full round differs from Run's", sc.Name, cfg, rx)
				}

				got, err := BuildFor(sc, seed, n, seqLen, cfg, rx)
				if err != nil {
					t.Fatal(err)
				}
				wantDS := datasetFrom(sc, only(want, rx), n, seqLen, cfg)
				if math.Float64bits(got.Mean) != math.Float64bits(wantDS.Mean) ||
					math.Float64bits(got.Std) != math.Float64bits(wantDS.Std) {
					t.Fatalf("%s %+v rx=%03b: Mean/Std %v/%v, want %v/%v", sc.Name, cfg, rx, got.Mean, got.Std, wantDS.Mean, wantDS.Std)
				}
				for i, g := range got.Samples {
					w := wantDS.Samples[i]
					if !sameBits(g.Alice, w.Alice) || !sameBits(g.Bob, w.Bob) ||
						!sameBits(g.EveEavesdrop, w.EveEavesdrop) || !sameBits(g.EveImitate, w.EveImitate) ||
						math.Float64bits(g.Duration) != math.Float64bits(w.Duration) {
						t.Fatalf("%s %+v rx=%03b: sample %d differs from the Run-derived one", sc.Name, cfg, rx, i)
					}
					if (rx&Alice == 0) != (len(g.Alice) == 0) || (rx&Bob == 0) != (len(g.Bob) == 0) ||
						(rx&Eve == 0) != (len(g.EveEavesdrop) == 0) || (rx&Eve == 0) != (len(g.EveImitate) == 0) {
						t.Fatalf("%s %+v rx=%03b: sample %d: derived sides do not match the selection", sc.Name, cfg, rx, i)
					}
				}
			}
		}
	}
}

// TestFeaturesLeaveCollectorAsRun: after Features, whatever receivers it
// selects, the collector stands exactly where Run would have left it,
// so the raw receptions of later rounds agree too.
func TestFeaturesLeaveCollectorAsRun(t *testing.T) {
	for _, sc := range Scenarios() {
		viaRun := NewCollector(sc, 5)
		viaRun.Run(3)
		a := viaRun.Run(1)[0]
		for rx := Receivers(0); rx <= allReceivers; rx++ {
			viaFeatures := NewCollector(sc, 5)
			viaFeatures.Features(3, DefaultExtract(), rx)
			b := viaFeatures.Run(1)[0]
			if a.Index != b.Index || math.Float64bits(a.Duration) != math.Float64bits(b.Duration) ||
				!sameBits(a.BobRx.RRSSI, b.BobRx.RRSSI) || !sameBits(a.AlcRx.RRSSI, b.AlcRx.RRSSI) ||
				!sameBits(a.EveEavesdropRx.RRSSI, b.EveEavesdropRx.RRSSI) || !sameBits(a.EveImitateRx.RRSSI, b.EveImitateRx.RRSSI) {
				t.Fatalf("%s rx=%03b: the round after Features differs from the round after Run", sc.Name, rx)
			}
		}
	}
}
