// Copyright 2009 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

package rng

import "math"

// gen is math/rand's Go 1 generator, ported so that every draw is a
// direct call: rand.New(rand.NewSource(seed)) and a gen seeded with
// seed give the same values, bit for bit, from every method below.
// The Go 1 compatibility promise fixes that seeded stream, so owning a
// copy changes no output; TestSourceMatchesMathRand and
// FuzzSourceMatchesMathRand hold it to math/rand draw for draw.
//
// The source is Mitchell and Reeds' additive lagged-Fibonacci
// generator over a 607-word register with a tap at lag 273, seeded by
// a Lehmer (Park–Miller) sequence XORed with rngCooked. Normals come
// from Marsaglia and Tsang's ziggurat ("The Ziggurat Method for
// Generating Random Variables", 2000) over the kn, wn and fn tables.
type gen struct {
	tap  int // index into vec
	feed int // index into vec
	vec  [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	rn       = 3.442619855899 // the ziggurat's base-strip edge
)

// The Lehmer (Park–Miller) seed sequence is x ← 48271·x mod (2³¹−1).
// Seeding takes 1841 of its steps; lehmer2 and lehmer3 are the two-
// and three-step multipliers and lehmer20 the 20 steps seeding skips
// first, so the three words a register slot needs come from one state
// in parallel.
const (
	lehmer   = 48271
	lehmer2  = lehmer * lehmer % int32max
	lehmer3  = lehmer2 * lehmer % int32max
	lehmer4  = lehmer2 * lehmer2 % int32max
	lehmer8  = lehmer4 * lehmer4 % int32max
	lehmer16 = lehmer8 * lehmer8 % int32max
	lehmer20 = lehmer16 * lehmer4 % int32max
)

// mulmod returns a·x mod (2³¹−1) for a and x in [1, 2³¹−2], the residue
// math/rand's seedrand computes with Schrage's division when a is
// 48271. The product is below 2⁶², and 2³¹ ≡ 1 (mod 2³¹−1), so folding
// its bits above 31 onto its low 31 bits twice leaves at most 2³¹, and
// one conditional subtraction of the modulus gives the residue with no
// division. The result is never 0, because 2³¹−1 is prime and divides
// neither factor.
func mulmod(a, x uint64) uint64 {
	p := a * x
	p = p&int32max + p>>31
	p = p&int32max + p>>31
	if p >= int32max {
		p -= int32max
	}
	return p
}

// seed sets the register exactly as math/rand's rngSource.Seed does:
// skip 20 Lehmer steps, then fill each slot with three more, shifted
// and XORed together and with rngCooked.
func (g *gen) seed(seed int64) {
	g.tap = 0
	g.feed = rngLen - rngTap

	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}

	x := mulmod(lehmer20, uint64(seed))
	for i := range g.vec {
		x1, x2, x3 := mulmod(lehmer, x), mulmod(lehmer2, x), mulmod(lehmer3, x)
		g.vec[i] = int64(x1)<<40 ^ int64(x2)<<20 ^ int64(x3) ^ rngCooked[i]
		x = x3
	}
}

// uint64 advances the register one step and returns the word it wrote.
func (g *gen) uint64() uint64 {
	var x uint64
	x, g.tap, g.feed = g.step(g.tap, g.feed)
	return x
}

// step moves the tap and feed indices back one slot, wrapping at 0,
// adds the tapped word into the fed one and returns that sum with the
// new indices. Passing the indices by value lets a loop of steps keep
// them in registers.
func (g *gen) step(tap, feed int) (uint64, int, int) {
	tap--
	if tap < 0 {
		tap += rngLen
	}
	feed--
	if feed < 0 {
		feed += rngLen
	}
	x := g.vec[feed] + g.vec[tap]
	g.vec[feed] = x
	return uint64(x), tap, feed
}

// int63 is math/rand's Int63: the step's word without its sign bit.
func (g *gen) int63() int64 { return int64(g.uint64() & rngMask) }

// int31 is math/rand's Int31: the top 31 bits of int63.
func (g *gen) int31() int32 { return int32(g.int63() >> 32) }

// float64 is math/rand's Float64: int63/2⁶³, drawn again in the rare
// case that the division rounds up to 1.
func (g *gen) float64() float64 {
	for {
		if f := float64(g.int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// intn is math/rand's Intn for n > 0: Int31n while n fits 31 bits,
// Int63n above. Both mask a power of two and otherwise reject draws
// above the largest multiple of n, then reduce.
func (g *gen) intn(n int) int {
	if n <= int32max {
		n := int32(n)
		if n&(n-1) == 0 {
			return int(g.int31() & (n - 1))
		}
		limit := int32(int32max - (1<<31)%uint32(n))
		v := g.int31()
		for v > limit {
			v = g.int31()
		}
		return int(v % n)
	}
	n64 := int64(n)
	if n64&(n64-1) == 0 {
		return int(g.int63() & (n64 - 1))
	}
	limit := int64(rngMask - (1<<63)%uint64(n64))
	v := g.int63()
	for v > limit {
		v = g.int63()
	}
	return int(v % n64)
}

// perm is math/rand's Perm, including its no-op first swap, which
// still draws.
func (g *gen) perm(n int) []int {
	m := make([]int, n)
	for i := range m {
		j := g.intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// zig is one ziggurat candidate: math/rand's NormFloat64 takes
// int32(Uint32()), the top 32 of int63's bits, which are bits 31–62 of
// the step's word.
func (g *gen) zig() int32 { return int32(g.uint64() >> 31) }

// fast reports whether candidate j lies inside its strip's rectangle,
// NormFloat64's own first test |j| < kn[j&0x7F], which passes for
// about 99 % of candidates. The absolute value is branch-free: for
// j = −2³¹ it is 2³¹, as math/rand's is, and no kn entry exceeds it.
func fast(j int32) bool {
	m := j >> 31
	return uint32((j^m)-m) < kn[j&0x7F]
}

// normal is math/rand's NormFloat64.
func (g *gen) normal() float64 {
	j := g.zig()
	if fast(j) {
		return float64(j) * float64(wn[j&0x7F])
	}
	return g.normalFrom(j)
}

// skipNormals advances the stream past n normal draws without forming
// their values: a candidate that passes the fast test ends its draw
// after one step, exactly as in normal, and one that fails runs
// normal's own slow path, which consumes what it would have.
func (g *gen) skipNormals(n int) {
	tap, feed := g.tap, g.feed
	for ; n > 0; n-- {
		var x uint64
		x, tap, feed = g.step(tap, feed)
		if j := int32(x >> 31); !fast(j) {
			g.tap, g.feed = tap, feed
			g.normalFrom(j)
			tap, feed = g.tap, g.feed
		}
	}
	g.tap, g.feed = tap, feed
}

// normalFrom finishes a normal draw whose candidate j failed the fast
// test: NormFloat64's loop from that point, the base strip's tail
// sampler and the wedge test, drawing fresh candidates until one is
// accepted.
func (g *gen) normalFrom(j int32) float64 {
	for {
		i := j & 0x7F
		x := float64(j) * float64(wn[i])
		if fast(j) {
			return x
		}
		if i == 0 {
			for {
				x = -math.Log(g.float64()) * (1.0 / rn)
				y := -math.Log(g.float64())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return rn + x
			}
			return -rn - x
		}
		if fn[i]+float32(g.float64())*(fn[i-1]-fn[i]) < float32(math.Exp(-.5*x*x)) {
			return x
		}
		j = g.zig()
	}
}
