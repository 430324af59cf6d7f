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

// Gain returns the complex channel gain at time t seconds. The scatter
// sums run through mathx.CosSum in path order, so each quadrature is
// bit-identical to summing math.Cos(2π·f_n·t + φ_n) term by term.
func (f *Fader) Gain(t float64) (re, im float64) {
	var argI, argQ [faderPaths]float64
	for n, omega := range f.omega {
		w := omega * t
		argI[n] = w + f.phaseI[n]
		argQ[n] = w + f.phaseQ[n]
	}
	re = mathx.CosSum(argI[:]) * f.scale
	im = mathx.CosSum(argQ[:]) * f.scale
	if f.k > 0 {
		a := math.Sqrt(f.k / (f.k + 1))
		w := 2*math.Pi*f.losDoppler*t + f.losPhase
		re += a * math.Cos(w)
		im += a * math.Sin(w)
	}
	return re, im
}

// Envelope returns |gain| at time t.
func (f *Fader) Envelope(t float64) float64 {
	re, im := f.Gain(t)
	return math.Hypot(re, im)
}

// EnvelopeDB returns the envelope in dB, floored at −60 dB to keep deep
// fades finite (receivers lose the packet long before that anyway).
func (f *Fader) EnvelopeDB(t float64) float64 {
	e := f.Envelope(t)
	db := 20 * log10(e)
	if db < -60 {
		db = -60
	}
	return db
}

// Doppler returns the configured maximum Doppler shift in Hz.
func (f *Fader) Doppler() float64 { return f.fd }

func log10(x float64) float64 {
	if x <= 0 {
		return -30 // −300 dB; callers floor anyway
	}
	return math.Log10(x)
}
