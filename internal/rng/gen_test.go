package rng

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// oracle is math/rand's stream for a seed, drawn the way each Source
// method is documented to draw.
type oracle struct{ r *rand.Rand }

func newOracle(seed int64) oracle { return oracle{rand.New(rand.NewSource(seed))} }

// derive is Source.Derive's documented seed: the label's FNV-1a fold
// over its runes, XOR the parent's next Int63.
func (o oracle) derive(label string) oracle {
	h := int64(1469598103934665603)
	for _, c := range label {
		h ^= int64(c)
		h *= 1099511628211
	}
	return newOracle(h ^ o.r.Int63())
}

func (o oracle) bits(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(o.r.Int63() & 1)
	}
	return out
}

// intnArgs covers Int31n's power-of-two mask and rejection loop, the
// 31-bit edge, and (on 64-bit builds) Int63n's two paths.
func intnArgs() []int {
	ns := []int{1, 2, 3, 7, 64, 1000, 1 << 30, 1<<30 + 1, 3 << 29, math.MaxInt32 - 1, math.MaxInt32}
	for _, big := range []int64{1 << 31, 1<<31 + 1, 1 << 40, 1<<40 + 12345, 3 << 61, math.MaxInt64} {
		if int64(int(big)) == big {
			ns = append(ns, int(big))
		}
	}
	return ns
}

// sameStream draws op by op from s and o and fails at the first
// difference in any bit. op selects the method, arg its parameter.
func sameStream(t testing.TB, s *Source, o oracle, op, arg byte) (*Source, oracle) {
	t.Helper()
	eqf := func(name string, got, want float64) {
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s = %v (%#x), math/rand %v (%#x)", name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	switch op % 10 {
	case 0:
		eqf("Normal", s.Normal(0, 1), o.r.NormFloat64())
	case 1:
		eqf("Normal(2, 3)", s.Normal(2, 3), 2+3*o.r.NormFloat64())
	case 2:
		eqf("Float64", s.Float64(), o.r.Float64())
	case 3:
		eqf("Uniform", s.Uniform(-1, 4), -1+5*o.r.Float64())
	case 4:
		if got, want := s.Int63(), o.r.Int63(); got != want {
			t.Fatalf("Int63 = %d, math/rand %d", got, want)
		}
	case 5:
		ns := intnArgs()
		n := ns[int(arg)%len(ns)]
		if got, want := s.Intn(n), o.r.Intn(n); got != want {
			t.Fatalf("Intn(%d) = %d, math/rand %d", n, got, want)
		}
	case 6:
		n := int(arg % 40)
		if got, want := s.Perm(n), o.r.Perm(n); !slices.Equal(got, want) {
			t.Fatalf("Perm(%d) = %v, math/rand %v", n, got, want)
		}
	case 7:
		n := int(arg % 70)
		if got, want := s.Bits(n), o.bits(n); !slices.Equal(got, want) {
			t.Fatalf("Bits(%d) = %v, math/rand %v", n, got, want)
		}
	case 8:
		p := float64(arg) / 255
		if got, want := s.Bernoulli(p), o.r.Float64() < p; got != want {
			t.Fatalf("Bernoulli(%v) = %v, math/rand %v", p, got, want)
		}
	case 9:
		// Continue on the derived child, or skip normals, so both are
		// exercised from every stream position.
		if arg&1 == 0 {
			label := string([]rune{'d', rune(arg), 'é'})
			return s.Derive(label), o.derive(label)
		}
		n := int(arg) * 4
		s.SkipNormals(n)
		for i := 0; i < n; i++ {
			o.r.NormFloat64()
		}
	}
	return s, o
}

var oracleSeeds = []int64{
	0, 1, 2, -1, -2, 42, 89482311, -89482311,
	int32max, -int32max, 2 * int32max, -3 * int32max, int32max - 1, int32max + 1,
	1 << 31, 1 << 40, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
}

// TestSourceMatchesMathRand holds every Source method to math/rand's
// Go 1 stream for the same seed, bit for bit, with the methods
// interleaved so each starts at many register positions and across
// the 607-word wrap.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range oracleSeeds {
		s, o := New(seed), newOracle(seed)
		for k := 0; k < 3000; k++ {
			op := byte(k*7 + k/10)
			s, o = sameStream(t, s, o, op, byte(k*13+int(seed)))
		}
		// A derived Source drawn late sees the stream one drawn at once does.
		s, o = New(seed).Derive("late"), newOracle(seed).derive("late")
		if got, want := s.Float64(), o.r.Float64(); got != want {
			t.Fatalf("seed %d: late-drawn child Float64 = %v, math/rand %v", seed, got, want)
		}
	}
}

// TestMulmodMatchesSchrage checks the division-free Lehmer step
// against math/rand's Schrage form at both ends of its domain and on a
// stride through it, and each multi-step multiplier against that many
// Schrage steps.
func TestMulmodMatchesSchrage(t *testing.T) {
	schrage := func(x int32) int32 {
		const a, q, r = 48271, 44488, 3399
		x = a*(x%q) - r*(x/q)
		if x < 0 {
			x += int32max
		}
		return x
	}
	check := func(x int32) {
		want := x
		for steps, a := range []uint64{1, lehmer, lehmer2, lehmer3} {
			if got := mulmod(a, uint64(x)); got != uint64(want) {
				t.Fatalf("%d Lehmer steps from %d: mulmod = %d, Schrage %d", steps, x, got, want)
			}
			want = schrage(want)
		}
		for i := 4; i < 20; i++ {
			want = schrage(want)
		}
		if got := mulmod(lehmer20, uint64(x)); got != uint64(want) {
			t.Fatalf("20 Lehmer steps from %d: mulmod = %d, Schrage %d", x, got, want)
		}
	}
	for x := int32(1); x < 1<<14; x++ {
		check(x)
		check(int32max - x)
	}
	for x := int64(1); x < int32max; x += 4099 {
		check(int32(x))
	}
}

// rejectAt reports whether math/rand's seeded stream, drawn as normals,
// starts a draw at step k (counting Int63 steps from 0) whose first
// candidate fails the ziggurat's fast test, and whether that candidate
// is in the base strip.
func rejectAt(seed int64, k int) (reject, base bool) {
	c := &countingSource{src: rand.NewSource(seed)}
	r := rand.New(c)
	for len(c.vals) <= k {
		start := len(c.vals)
		r.NormFloat64()
		if start == k && len(c.vals) > start+1 {
			return true, int32(uint32(c.vals[k]>>31))&0x7F == 0
		}
	}
	return false, false
}

type countingSource struct {
	src  rand.Source
	vals []int64
}

func (c *countingSource) Int63() int64 {
	v := c.src.Int63()
	c.vals = append(c.vals, v)
	return v
}

func (c *countingSource) Seed(seed int64) { c.src.Seed(seed) }

// TestSkipNormals checks that SkipNormals(n) leaves the stream where n
// NormFloat64 calls leave math/rand's, for skips that end before, on
// and after the 273-step tap lag, the 334-step feed wrap and the
// 607-word register length, from seeds whose stream holds a slow-path
// reject (a wedge or the base strip's tail) at one of those steps.
func TestSkipNormals(t *testing.T) {
	cases := []struct {
		seed int64
		step int
		base bool
	}{
		{19, 272, false}, {46, 273, false}, {43, 334, false}, {44, 607, false}, {15, 608, false},
		{486, 273, true}, {21, 334, true}, {1892, 607, true}, {1359, 608, true},
	}
	for _, c := range cases {
		if reject, base := rejectAt(c.seed, c.step); !reject || base != c.base {
			t.Fatalf("seed %d: reject at step %d = %v (base strip %v), want a reject (base strip %v)",
				c.seed, c.step, reject, base, c.base)
		}
		for _, n := range []int{0, 1, 272, 273, 274, 334, 606, 607, 608, 10000} {
			for _, lead := range []int{0, 1, 5} {
				s, o := New(c.seed), newOracle(c.seed)
				for i := 0; i < lead; i++ {
					s.Float64()
					o.r.Float64()
				}
				s.SkipNormals(n)
				for i := 0; i < n; i++ {
					o.r.NormFloat64()
				}
				for i := 0; i < 4; i++ {
					if got, want := s.Normal(0, 1), o.r.NormFloat64(); got != want {
						t.Fatalf("seed %d, lead %d: after SkipNormals(%d), Normal = %v, math/rand %v",
							c.seed, lead, n, got, want)
					}
					if got, want := s.Int63(), o.r.Int63(); got != want {
						t.Fatalf("seed %d, lead %d: after SkipNormals(%d), Int63 = %d, math/rand %d",
							c.seed, lead, n, got, want)
					}
				}
			}
		}
	}
	// A derived stream with nothing to skip is left unseeded.
	d := New(1).Derive("x")
	d.SkipNormals(0)
	if d.g != nil {
		t.Fatal("SkipNormals(0) seeded a derived stream")
	}
}

// FuzzSourceMatchesMathRand runs a fuzzed sequence of Source methods
// against math/rand's stream for a fuzzed seed: each pair of op bytes
// picks a method and its argument.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(int64(-1), []byte{5, 200, 5, 13, 6, 39, 7, 69, 9, 2, 0, 0})
	f.Add(int64(math.MinInt64), []byte{9, 255, 0, 0, 9, 151, 4, 4})
	f.Add(int64(math.MaxInt64), []byte{9, 4, 5, 16, 1, 1})
	f.Add(int64(int32max), []byte{2, 0, 3, 0, 8, 128})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		s, o := New(seed), newOracle(seed)
		for i := 0; i+1 < len(ops); i += 2 {
			s, o = sameStream(t, s, o, ops[i], ops[i+1])
		}
		if got, want := s.Int63(), o.r.Int63(); got != want {
			t.Fatalf("final Int63 = %d, math/rand %d", got, want)
		}
	})
}

func BenchmarkNormal(b *testing.B) {
	s := New(1)
	var sum float64
	for i := 0; i < b.N; i++ {
		sum += s.Normal(0, 1)
	}
	_ = sum
}

// BenchmarkSkipNormals skips one reception's owed read noise: an SF12
// packet's ~150 register reads.
func BenchmarkSkipNormals(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.SkipNormals(150)
	}
}

// BenchmarkDeriveFirstDraw is the seeding cost a derived stream pays at
// its first draw.
func BenchmarkDeriveFirstDraw(b *testing.B) {
	parent := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		parent.Derive("child").Float64()
	}
}
