package channel

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// The oscillator bank as it was before Gain moved onto mathx.CosSum:
// per-path Doppler frequencies, the argument formed as 2π·f_n·t, and one
// math.Cos per term. It draws from its source exactly as NewFader does,
// so a reference and a production fader built from equal seeds must
// give the same gain to the bit. It lives here only as the oracle for
// that claim.

type refFader struct {
	k              float64
	freq           []float64
	phaseI, phaseQ []float64
	scale          float64
	losPhase       float64
	losDoppler     float64
}

func newRefFader(fd, k float64, src *rng.Source) *refFader {
	f := &refFader{
		k:          k,
		freq:       make([]float64, faderPaths),
		phaseI:     make([]float64, faderPaths),
		phaseQ:     make([]float64, faderPaths),
		scale:      math.Sqrt(1 / ((k + 1) * faderPaths)),
		losPhase:   src.Uniform(0, 2*math.Pi),
		losDoppler: fd * math.Cos(src.Uniform(0, 2*math.Pi)),
	}
	for n := 0; n < faderPaths; n++ {
		alpha := (2*math.Pi*float64(n) + src.Uniform(0, 2*math.Pi)) / faderPaths
		f.freq[n] = fd * math.Cos(alpha)
		f.phaseI[n] = src.Uniform(0, 2*math.Pi)
		f.phaseQ[n] = src.Uniform(0, 2*math.Pi)
	}
	return f
}

func (f *refFader) Gain(t float64) (re, im float64) {
	for n := 0; n < faderPaths; n++ {
		w := 2 * math.Pi * f.freq[n] * t
		re += math.Cos(w + f.phaseI[n])
		im += math.Cos(w + f.phaseQ[n])
	}
	re *= f.scale
	im *= f.scale
	if f.k > 0 {
		a := math.Sqrt(f.k / (f.k + 1))
		w := 2*math.Pi*f.losDoppler*t + f.losPhase
		re += a * math.Cos(w)
		im += a * math.Sin(w)
	}
	return re, im
}

// TestFaderGainMatchesReference: for every environment/link preset's
// Doppler and K-factor (urban Rayleigh, rural Rician) and several seeds,
// Gain equals the per-term math.Cos loop to the bit, from t = 0 through
// times whose oscillator arguments pass 2^29, where the kernel hands
// over to math.Cos's Payne–Hanek reduction.
func TestFaderGainMatchesReference(t *testing.T) {
	ts := []float64{0, 1e-9, 0.0125, 1, 3.7, 60, 1e3}
	for x := 1e3; x < 1e9; x *= 1.37 {
		ts = append(ts, x)
	}
	jitter := rng.New(11)
	for i := 0; i < 4000; i++ {
		ts = append(ts, jitter.Uniform(0, 600))
	}
	for _, env := range []Environment{Urban, Rural} {
		for _, link := range []LinkType{V2V, V2I} {
			cfg := DefaultConfig(env, link)
			cfg.Normalize()
			fd, k := cfg.DopplerHz(), cfg.RicianK
			if (k > 0) != (env == Rural) {
				t.Fatalf("%v %v: K = %v, want Rician only in the rural preset", env, link, k)
			}
			past := false
			for seed := int64(1); seed <= 8; seed++ {
				got, want := NewFader(fd, k, rng.New(seed)), newRefFader(fd, k, rng.New(seed))
				for _, tt := range ts {
					gr, gi := got.Gain(tt)
					wr, wi := want.Gain(tt)
					if math.Float64bits(gr) != math.Float64bits(wr) || math.Float64bits(gi) != math.Float64bits(wi) {
						t.Fatalf("%v %v seed %d: Gain(%v) = (%v, %v), want (%v, %v)", env, link, seed, tt, gr, gi, wr, wi)
					}
					for n := range want.freq {
						past = past || math.Abs(2*math.Pi*want.freq[n]*tt) >= 1<<29
					}
				}
			}
			if !past {
				t.Fatalf("%v %v: no oscillator argument reached 2^29", env, link)
			}
		}
	}
}
