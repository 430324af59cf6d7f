package channel

import (
	"math"

	"repro/internal/mathx"
	"repro/internal/rng"
)

// Fader synthesizes small-scale fading with a Jakes/Clarke sum-of-sinusoids
// oscillator bank. The resulting complex gain has the classic Clarke
// autocorrelation J₀(2π f_d τ), so the coherence-time estimate
// T_c ≈ 0.423/f_d used by the paper holds by construction.
//
// With K > 0 a line-of-sight component is added, turning the envelope
// Rician (rural LOS links); K = 0 yields Rayleigh (urban NLOS).
type Fader struct {
	fd float64 // max Doppler shift, Hz
	k  float64 // Rician K-factor

	// Oscillator bank: per-path angular Doppler frequency 2π·f_n and
	// phases.
	omega  [faderPaths]float64
	phaseI [faderPaths]float64
	phaseQ [faderPaths]float64
	scale  float64

	losPhase   float64
	losDoppler float64
}

// faderPaths is the number of sinusoid paths; 16 is ample for a smooth
// Rayleigh envelope (Clarke recommends ≥ 8).
const faderPaths = 16

// NewFader builds a fader with maximum Doppler fd (Hz) and Rician factor k.
func NewFader(fd, k float64, src *rng.Source) *Fader {
	f := &Fader{
		fd: fd,
		k:  k,
		// Scatter power normalized to 1/(K+1) of unit total power,
		// split across paths and the two quadratures.
		scale:      math.Sqrt(1 / ((k + 1) * faderPaths)),
		losPhase:   src.Uniform(0, 2*math.Pi),
		losDoppler: fd * math.Cos(src.Uniform(0, 2*math.Pi)),
	}
	// Random arrival angles give each path a Doppler in [-fd, fd] with the
	// Clarke angle distribution.
	for n := 0; n < faderPaths; n++ {
		alpha := (2*math.Pi*float64(n) + src.Uniform(0, 2*math.Pi)) / faderPaths
		f.omega[n] = 2 * math.Pi * (fd * math.Cos(alpha))
		f.phaseI[n] = src.Uniform(0, 2*math.Pi)
		f.phaseQ[n] = src.Uniform(0, 2*math.Pi)
	}
	return f
}

// Gains writes the complex channel gain at each time ts[i] seconds into
// re[i] and im[i]. The scatter sums run through mathx.OscBank, so each
// quadrature is bit-identical to summing math.Cos(2π·f_n·t + φ_n) term
// by term in path order. re and im must be at least as long as ts.
func (f *Fader) Gains(ts, re, im []float64) {
	mathx.OscBank(f.omega[:], f.phaseI[:], f.scale, ts, re)
	mathx.OscBank(f.omega[:], f.phaseQ[:], f.scale, ts, im)
	if f.k > 0 {
		a := math.Sqrt(f.k / (f.k + 1))
		for i, t := range ts {
			w := 2*math.Pi*f.losDoppler*t + f.losPhase
			re[i] += a * math.Cos(w)
			im[i] += a * math.Sin(w)
		}
	}
}

// envelopesDB writes the envelope |gain| in dB at each time ts[i] into
// out[i], floored at −60 dB to keep deep fades finite (receivers lose
// the packet long before that anyway). im is scratch as long as ts.
func (f *Fader) envelopesDB(ts, out, im []float64) {
	f.Gains(ts, out, im)
	for i, re := range out[:len(ts)] {
		db := 20 * log10(math.Hypot(re, im[i]))
		if db < -60 {
			db = -60
		}
		out[i] = db
	}
}

// Doppler returns the configured maximum Doppler shift in Hz.
func (f *Fader) Doppler() float64 { return f.fd }

func log10(x float64) float64 {
	if x <= 0 {
		return -30 // −300 dB; callers floor anyway
	}
	return math.Log10(x)
}
