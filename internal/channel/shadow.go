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
	sigma float64
	step  float64 // grid spacing in metres
	rho   float64 // AR(1) coefficient between adjacent grid points
	innov float64 // σ·√(1−ρ²), the AR(1) innovation's std deviation
	src   *rng.Source
	// chunks holds the grid points made so far, n of them, in
	// shadowChunk-sized blocks: growing the grid allocates one block at
	// a time and never copies what is already there.
	chunks [][]float64
	n      int
}

// shadowGridStep is the spatial resolution of the field. 0.5 m is far
// below every decorrelation distance used by the presets.
const shadowGridStep = 0.5

// shadowChunk is how many grid points (256 m of route) one block holds.
const shadowChunk = 512

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
		return s.value(lo)
	}
	return s.value(lo)*(1-frac) + s.value(lo+1)*frac
}

// value returns grid point k, which extend has made.
func (s *ShadowProcess) value(k int) float64 {
	return s.chunks[uint(k)/shadowChunk][uint(k)%shadowChunk]
}

// extend makes the grid points up to index upto: the first from
// N(0, σ²), each later one from its predecessor by the AR(1) step.
func (s *ShadowProcess) extend(upto int) {
	for ; s.n <= upto; s.n++ {
		c, i := s.n/shadowChunk, s.n%shadowChunk
		if i == 0 {
			s.chunks = append(s.chunks, make([]float64, shadowChunk))
		}
		var v float64
		if s.n == 0 {
			v = s.src.Normal(0, s.sigma)
		} else {
			prev := s.value(s.n - 1)
			innov := s.src.Normal(0, s.innov)
			v = s.rho*prev + innov
		}
		s.chunks[c][i] = v
	}
}

// Sigma returns the configured standard deviation in dB.
func (s *ShadowProcess) Sigma() float64 { return s.sigma }
