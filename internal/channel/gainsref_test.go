package channel

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// refModel is the channel's gain forms as they were before their taps
// were batched: one tap at a time, the fader gain from the per-term
// math.Cos oracle, the envelope as 20·log10(math.Hypot) under log10's
// −30 rule and the −60 dB floor, the separation's triangle wave through
// math.Mod, and the path loss from math.Log10 of the separation clamped
// at 1 m. It draws its streams in NewModel's order, so a reference and
// a Model built from equal seeds must give the same gains to the bit.
type refModel struct {
	cfg                             Config
	mob                             *Mobility
	shadow, eveShadow, eveFarShadow *ShadowProcess
	fader, eveFader, eveFarFader    *refFader
}

func newRefModel(cfg Config, src *rng.Source) *refModel {
	cfg.Normalize()
	fd := cfg.DopplerHz()
	return &refModel{
		cfg:          cfg,
		mob:          NewMobility(cfg, src.Derive("mobility")),
		shadow:       NewShadowProcess(cfg.ShadowSigmaDB, cfg.ShadowDecorrM, src.Derive("shadow")),
		fader:        newRefFader(fd, cfg.RicianK, src.Derive("fading")),
		eveFader:     newRefFader(fd, cfg.RicianK, src.Derive("eve-fading")),
		eveShadow:    NewShadowProcess(cfg.ShadowSigmaDB, cfg.ShadowDecorrM, src.Derive("eve-shadow")),
		eveFarFader:  newRefFader(fd, cfg.RicianK, src.Derive("eve-far-fading")),
		eveFarShadow: NewShadowProcess(cfg.ShadowSigmaDB, cfg.ShadowDecorrM, src.Derive("eve-far-shadow")),
	}
}

func refLog10(x float64) float64 {
	if x <= 0 {
		return -30
	}
	return math.Log10(x)
}

func (r *refModel) distance(t float64) float64 {
	m := r.mob
	span := m.maxD - m.minD
	if span <= 0 {
		return m.minD
	}
	period := 2 * span
	x := math.Mod(m.phase+m.closeSpeed*t, period)
	if x < 0 {
		x += period
	}
	if x > span {
		x = period - x
	}
	return m.minD + x
}

// gainDB is one tap's gain over fader f at separation d with shadowing
// sh.
func (r *refModel) gainDB(f *refFader, t, d, sh float64) float64 {
	re, im := f.Gain(t)
	env := 20 * refLog10(math.Hypot(re, im))
	if env < -60 {
		env = -60
	}
	if d < 1 {
		d = 1
	}
	pl := r.cfg.RefLossDB + 10*r.cfg.PathLossExp*refLog10(d)
	return -pl + sh + env
}

func (r *refModel) mix(legit, own float64) float64 {
	return r.cfg.EveShadowCorr*legit + math.Sqrt(1-r.cfg.EveShadowCorr*r.cfg.EveShadowCorr)*own
}

func (r *refModel) legit(t float64) float64 {
	return r.gainDB(r.fader, t, r.distance(t), r.shadow.At(r.mob.RoutePosition(t)))
}

func (r *refModel) imitate(t float64) float64 {
	pos := r.mob.RoutePosition(t)
	sh := r.mix(r.shadow.At(pos-r.cfg.EveOffsetM), r.eveShadow.At(pos))
	return r.gainDB(r.eveFader, t, r.distance(t)+r.cfg.EveOffsetM, sh)
}

func (r *refModel) eavesdrop(t float64) float64 {
	pos := r.mob.RoutePosition(t)
	sh := r.mix(r.shadow.At(pos), r.eveFarShadow.At(pos))
	return r.gainDB(r.eveFarFader, t, r.distance(t)+r.cfg.EveOffsetM, sh)
}

// TestGainsDBMatchesReference: for every environment/link preset and a
// link whose endpoints come closer than 1 m, all three gain forms equal
// the per-tap reference to the bit. The taps include smoothing taps
// before t = 0 and a drive of an hour; they go through each form whole and in runs of 1 to 9, so
// one-tap calls and every Log10s batch tail are covered, and the forms
// are queried in orders that build each Eve fader before and after the
// legitimate link is first queried.
func TestGainsDBMatchesReference(t *testing.T) {
	ts := []float64{-0.065, -0.02, 0, 1e-9, 0.0125, 1, 3.7, 60}
	jitter := rng.New(12)
	for i := 0; i < 1500; i++ {
		ts = append(ts, jitter.Uniform(0, 3600))
	}
	near := DefaultConfig(Urban, V2V)
	near.InitialDistanceM, near.MinDistanceM, near.MaxDistanceM = 2, 0.25, 3
	cfgs := []Config{near}
	for _, env := range []Environment{Urban, Rural} {
		for _, link := range []LinkType{V2V, V2I} {
			cfgs = append(cfgs, DefaultConfig(env, link))
		}
	}
	type form struct {
		name string
		got  func(m *Model) func(ts, out []float64)
		want func(r *refModel) func(t float64) float64
	}
	legit := form{"legit",
		func(m *Model) func(ts, out []float64) { return m.GainsDB },
		func(r *refModel) func(t float64) float64 { return r.legit }}
	imitate := form{"imitate",
		func(m *Model) func(ts, out []float64) { return m.EveImitateGainsDB },
		func(r *refModel) func(t float64) float64 { return r.imitate }}
	eavesdrop := form{"eavesdrop",
		func(m *Model) func(ts, out []float64) { return m.EveEavesdropGainsDB },
		func(r *refModel) func(t float64) float64 { return r.eavesdrop }}
	orders := [][]form{{legit, imitate, eavesdrop}, {imitate, eavesdrop, legit}, {eavesdrop, legit, imitate}}

	out := make([]float64, len(ts))
	clamped := false
	for ci, cfg := range cfgs {
		for seed := int64(1); seed <= 2; seed++ {
			for oi, order := range orders {
				m, r := NewModel(cfg, rng.New(seed)), newRefModel(cfg, rng.New(seed))
				for _, f := range order {
					want := f.want(r)
					check := func(how string) {
						for i, tt := range ts {
							w := want(tt)
							if math.Float64bits(out[i]) != math.Float64bits(w) {
								t.Fatalf("config %d seed %d order %d, %s %s: gain at %v = %v, want %v", ci, seed, oi, f.name, how, tt, out[i], w)
							}
							clamped = clamped || r.distance(tt) < 1
						}
					}
					f.got(m)(ts, out)
					check("whole")
					clear(out)
					for lo, run := 0, 1; lo < len(ts); lo, run = lo+run, run%9+1 {
						hi := min(lo+run, len(ts))
						f.got(m)(ts[lo:hi], out[lo:hi])
					}
					check("in runs")
				}
			}
		}
	}
	if !clamped {
		t.Fatal("no tap's separation fell below the 1 m clamp")
	}
}
