package channel

import (
	"math"

	"repro/internal/rng"
)

// ShadowProcess is a spatially correlated log-normal shadowing field along
// the driven route (Gudmundson 1991): shadowing in dB is a Gaussian AR(1)
// process over distance with autocorrelation exp(−Δd/decorr).
//
// The process is generated lazily on a fixed grid and linearly
// interpolated, so any position can be queried in any order as long as the
// route only grows forward (negative offsets below the first grid point
// clamp to it — used for an imitating Eve trailing slightly behind).
type ShadowProcess struct {
	sigma  float64
	step   float64 // grid spacing in metres
	rho    float64 // AR(1) coefficient between adjacent grid points
	innov  float64 // σ·√(1−ρ²), the AR(1) innovation's std deviation
	src    *rng.Source
	values []float64
}

// shadowGridStep is the spatial resolution of the field. 0.5 m is far
// below every decorrelation distance used by the presets.
const shadowGridStep = 0.5

// NewShadowProcess creates a shadowing field with standard deviation sigma
// (dB) and decorrelation distance decorr (m).
func NewShadowProcess(sigma, decorr float64, src *rng.Source) *ShadowProcess {
	if decorr <= 0 {
		decorr = 1
	}
	rho := math.Exp(-shadowGridStep / decorr)
	return &ShadowProcess{
		sigma: sigma,
		step:  shadowGridStep,
		rho:   rho,
		innov: sigma * math.Sqrt(1-rho*rho),
		src:   src,
	}
}

// At returns the shadowing value in dB at route position pos metres.
func (s *ShadowProcess) At(pos float64) float64 {
	if pos < 0 {
		pos = 0
	}
	idx := pos / s.step
	lo := int(idx)
	frac := idx - float64(lo)
	s.extend(lo + 1)
	if frac == 0 {
		return s.values[lo]
	}
	return s.values[lo]*(1-frac) + s.values[lo+1]*frac
}

func (s *ShadowProcess) extend(upto int) {
	for len(s.values) <= upto {
		if len(s.values) == 0 {
			s.values = append(s.values, s.src.Normal(0, s.sigma))
			continue
		}
		prev := s.values[len(s.values)-1]
		innov := s.src.Normal(0, s.innov)
		s.values = append(s.values, s.rho*prev+innov)
	}
}

// Sigma returns the configured standard deviation in dB.
func (s *ShadowProcess) Sigma() float64 { return s.sigma }
