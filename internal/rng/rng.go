// Package rng provides the deterministic random sources used throughout
// the Vehicle-Key simulator. Every stochastic component (fading, noise,
// hardware offsets, NN initialization, dataset shuffling) draws from an
// explicit *Source so that experiments are exactly reproducible from a
// seed, and independent subsystems can be given independent streams.
package rng

// Source is a seeded pseudo-random stream: math/rand's Go 1 stream for
// its seed (see gen), with the derived-stream and distribution helpers
// the channel and NN code need. A Source is not safe for concurrent
// use; derive one per goroutine.
//
// A Source made by Derive keeps its seed and builds its generator at
// its first draw, so a derived stream nobody draws from is never
// seeded; its draws are the same whenever the first one comes. New
// (and so Stream) seeds at once, so a stream made ahead of use pays its
// seeding where it is made, not at a first draw that may sit on a
// latency path (a LoRa device's first backoff is drawn under the
// medium's lock).
type Source struct {
	seed int64
	g    *gen // nil until the first draw of a derived Source
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := &Source{seed: seed}
	s.seedStream()
	return s
}

// gen returns the source's generator, seeding it at the first draw of
// a derived Source. The seeding is a call of its own, so this check
// inlines into every draw.
func (s *Source) gen() *gen {
	if s.g == nil {
		s.seedStream()
	}
	return s.g
}

func (s *Source) seedStream() {
	s.g = new(gen)
	s.g.seed(s.seed)
}

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
	return &Source{seed: h ^ s.gen().int63()}
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return s.gen().float64() }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: invalid argument to Intn")
	}
	return s.gen().intn(n)
}

// Int63 returns a uniform non-negative int64.
func (s *Source) Int63() int64 { return s.gen().int63() }

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.gen().perm(n) }

// Normal returns a sample from N(mean, std²).
func (s *Source) Normal(mean, std float64) float64 {
	return mean + std*s.gen().normal()
}

// SkipNormals advances the stream past n Normal draws without forming
// them: afterwards it is where n Normal calls would have left it, at
// about half their cost. A stream with nothing to skip is not seeded.
func (s *Source) SkipNormals(n int) {
	if n > 0 {
		s.gen().skipNormals(n)
	}
}

// Uniform returns a sample from U[lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.gen().float64()
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool { return s.gen().float64() < p }

// Bits returns n independent uniform bits as 0/1 bytes.
func (s *Source) Bits(n int) []byte {
	out := make([]byte, n)
	g := s.gen()
	for i := range out {
		out[i] = byte(g.int63() & 1)
	}
	return out
}
