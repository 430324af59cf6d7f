// Package rng provides the deterministic random sources used throughout
// the Vehicle-Key simulator. Every stochastic component (fading, noise,
// hardware offsets, NN initialization, dataset shuffling) draws from an
// explicit *Source so that experiments are exactly reproducible from a
// seed, and independent subsystems can be given independent streams.
package rng

import (
	"math"
	"math/rand"
)

// Source is a seeded pseudo-random stream. It wraps math/rand with the
// derived-stream and distribution helpers the channel and NN code need.
// A Source is not safe for concurrent use; derive one per goroutine.
//
// A Source made by Derive keeps its seed and builds its math/rand state
// at its first draw, so a derived stream nobody draws from is never
// seeded; its draws are the same whenever the first one comes. New
// (and so Stream) seeds at once, so a stream made ahead of use pays its
// seeding where it is made, not at a first draw that may sit on a
// latency path (a LoRa device's first backoff is drawn under the
// medium's lock).
type Source struct {
	seed int64
	r    *rand.Rand // nil until the first draw of a derived Source
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := &Source{seed: seed}
	s.seedStream()
	return s
}

// rand returns the source's math/rand stream, seeding it at the first
// draw of a derived Source. The seeding is a call of its own, so this
// check inlines into every draw.
func (s *Source) rand() *rand.Rand {
	if s.r == nil {
		s.seedStream()
	}
	return s.r
}

func (s *Source) seedStream() { s.r = rand.New(rand.NewSource(s.seed)) }

// SubSeed deterministically mixes (seed, label, index) into a derived
// seed. Unlike Source.Derive, it is a pure function of its arguments: it
// consumes nothing from any stream, so the derivation is independent of
// the order in which sub-streams are created. This is the primitive the
// parallel experiment engine builds on — every unit of work (experiment
// ID × grid index) gets a stream that depends only on the root seed and
// the unit's identity, never on which worker ran it first.
func SubSeed(seed int64, label string, index int) int64 {
	return SubSeedUint64(seed, label, uint64(index))
}

// SubSeedUint64 is SubSeed over a full 64-bit index, such as a vehicle
// ID: every bit of the index reaches the hash on every architecture,
// where an int index would drop the upper half on 32-bit builds.
// SubSeed(seed, label, i) == SubSeedUint64(seed, label, uint64(i)).
func SubSeedUint64(seed int64, label string, index uint64) int64 {
	// FNV-1a over the seed, label and index bytes, then a splitmix64
	// finalizer so that near-identical tuples (index n vs n+1) land far
	// apart in seed space.
	h := uint64(1469598103934665603)
	step := func(b byte) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	for i := 0; i < 8; i++ {
		step(byte(uint64(seed) >> (8 * i)))
	}
	for i := 0; i < len(label); i++ {
		step(label[i])
	}
	for i := 0; i < 8; i++ {
		step(byte(index >> (8 * i)))
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return int64(h)
}

// Stream returns a Source for one unit of parallel work, seeded with
// SubSeed(seed, label, index). Two calls with the same tuple return
// sources that produce identical draws; calls with distinct tuples
// return decoupled streams. The returned Source is owned by the caller
// and, like every Source, must not be shared across goroutines.
func Stream(seed int64, label string, index int) *Source {
	return New(SubSeed(seed, label, index))
}

// Derive returns a new independent Source whose seed is a deterministic
// function of this source's seed stream and the given label. Use it to
// give subsystems (Alice's radio, Bob's radio, the channel process, ...)
// decoupled streams so adding draws in one does not perturb another.
// The parent's draw is taken now; the new Source is seeded at its own
// first draw.
func (s *Source) Derive(label string) *Source {
	h := int64(1469598103934665603) // FNV offset basis
	for _, c := range label {
		h ^= int64(c)
		h *= 1099511628211
	}
	return &Source{seed: h ^ s.rand().Int63()}
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return s.rand().Float64() }

// Intn returns a uniform int in [0, n).
func (s *Source) Intn(n int) int { return s.rand().Intn(n) }

// Int63 returns a uniform non-negative int64.
func (s *Source) Int63() int64 { return s.rand().Int63() }

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.rand().Perm(n) }

// Shuffle pseudo-randomizes the order of n elements via swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.rand().Shuffle(n, swap) }

// Normal returns a sample from N(mean, std²).
func (s *Source) Normal(mean, std float64) float64 {
	return mean + std*s.rand().NormFloat64()
}

// Uniform returns a sample from U[lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.rand().Float64()
}

// Rayleigh returns a sample from the Rayleigh distribution with scale
// sigma — the envelope of a zero-mean complex Gaussian with per-component
// std sigma. This is the paper's fast-fading amplitude model (Eq. 1).
func (s *Source) Rayleigh(sigma float64) float64 {
	// Inverse-CDF sampling: F(x) = 1 - exp(-x²/2σ²).
	u := s.rand().Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return sigma * math.Sqrt(-2*math.Log(1-u))
}

// LogNormal returns a sample whose natural log is N(mu, sigma²). This is
// the paper's slow-fading (shadowing) amplitude model (Eq. 2).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Rician returns a sample from the Rician envelope distribution with
// K-factor k (ratio of LOS power to scattered power) and total power
// omega. Rural LOS links are Rician; urban NLOS degenerates to Rayleigh
// at k = 0.
func (s *Source) Rician(k, omega float64) float64 {
	nu := math.Sqrt(k * omega / (k + 1))      // LOS amplitude
	sigma := math.Sqrt(omega / (2 * (k + 1))) // scatter per-component std
	x := s.Normal(nu, sigma)
	y := s.Normal(0, sigma)
	return math.Hypot(x, y)
}

// Exponential returns a sample from Exp(rate).
func (s *Source) Exponential(rate float64) float64 {
	u := s.rand().Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -math.Log(1-u) / rate
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool { return s.rand().Float64() < p }

// Bits returns n independent uniform bits as 0/1 bytes.
func (s *Source) Bits(n int) []byte {
	out := make([]byte, n)
	r := s.rand()
	for i := range out {
		if r.Int63()&1 == 1 {
			out[i] = 1
		}
	}
	return out
}
