package rng

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must yield the same stream")
		}
	}
}

func TestDeriveIndependence(t *testing.T) {
	// Deriving a stream must not depend on how many draws the sibling
	// made before it existed — but the same label from the same parent
	// state must be stable.
	p1 := New(7)
	d1 := p1.Derive("alice")
	p2 := New(7)
	d2 := p2.Derive("alice")
	for i := 0; i < 20; i++ {
		if d1.Float64() != d2.Float64() {
			t.Fatal("derive must be deterministic")
		}
	}
	p3 := New(7)
	other := p3.Derive("bob")
	same := 0
	d3 := New(7).Derive("alice")
	for i := 0; i < 50; i++ {
		if d3.Float64() == other.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Error("different labels should give different streams")
	}
}

// TestFirstDrawLate checks the seed-on-first-draw rule: a Source draws
// exactly math/rand's stream for its seed, and a derived Source first
// drawn after its parent and siblings have moved on gives the same
// draws as one drawn at once, while the parent's own stream is the
// same either way.
func TestFirstDrawLate(t *testing.T) {
	draws := func(s *Source) []float64 {
		out := []float64{s.Float64(), s.Normal(0, 1), float64(s.Intn(1000)), float64(s.Int63())}
		for _, p := range s.Perm(5) {
			out = append(out, float64(p))
		}
		return out
	}
	ref := rand.New(rand.NewSource(42))
	want := []float64{ref.Float64(), ref.NormFloat64(), float64(ref.Intn(1000)), float64(ref.Int63())}
	for _, p := range ref.Perm(5) {
		want = append(want, float64(p))
	}
	if got := draws(New(42)); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("New(42) draws %v, math/rand draws %v", got, want)
	}

	early, late := New(7), New(7)
	eager := draws(early.Derive("alice"))
	child := late.Derive("alice")
	late.Derive("bob").Float64()
	draws(late)
	if got := draws(child); fmt.Sprint(got) != fmt.Sprint(eager) {
		t.Fatalf("late first draw %v, drawn at once %v", got, eager)
	}
	// The parent's stream does not depend on when its children draw.
	a, b := New(11), New(11)
	ca := a.Derive("x")
	ca.Float64()
	b.Derive("x")
	if fmt.Sprint(draws(a)) != fmt.Sprint(draws(b)) {
		t.Fatal("a child's draws moved its parent's stream")
	}
}

// TestSubSeedTable pins the sub-stream derivation contract the parallel
// experiment engine depends on: identical (seed, label, index) tuples
// give identical streams, any differing component gives a distinct
// stream, and near-identical tuples do not land on near-identical seeds.
func TestSubSeedTable(t *testing.T) {
	base := struct {
		seed  int64
		label string
		index int
	}{42, "fig12", 7}
	cases := []struct {
		name      string
		seed      int64
		label     string
		index     int
		wantEqual bool
	}{
		{"identical tuple", 42, "fig12", 7, true},
		{"different seed", 43, "fig12", 7, false},
		{"negative seed", -42, "fig12", 7, false},
		{"different label", 42, "fig13", 7, false},
		{"label prefix", 42, "fig1", 7, false},
		{"label with suffix", 42, "fig12 ", 7, false},
		{"empty label", 42, "", 7, false},
		{"different index", 42, "fig12", 8, false},
		{"index zero", 42, "fig12", 0, false},
		{"negative index", 42, "fig12", -7, false},
		{"label/index boundary shift", 42, "fig127", 0, false},
	}
	ref := SubSeed(base.seed, base.label, base.index)
	for _, c := range cases {
		got := SubSeed(c.seed, c.label, c.index)
		if (got == ref) != c.wantEqual {
			t.Errorf("%s: SubSeed(%d, %q, %d) = %d, ref %d, wantEqual=%v",
				c.name, c.seed, c.label, c.index, got, ref, c.wantEqual)
		}
		a, b := Stream(c.seed, c.label, c.index), Stream(c.seed, c.label, c.index)
		for i := 0; i < 10; i++ {
			if a.Float64() != b.Float64() {
				t.Fatalf("%s: two Streams of the same tuple disagree", c.name)
			}
		}
	}
}

// TestSubSeedNoCollisions sweeps a grid of tuples the size of a large
// experiment fan-out and requires all derived seeds to be distinct.
func TestSubSeedNoCollisions(t *testing.T) {
	labels := []string{"fig2a", "fig2b", "fig3", "fig9/window", "tab1", "comparison", "train/x", ""}
	seen := make(map[int64]string)
	for _, seed := range []int64{0, 1, -1, 1 << 40} {
		for _, label := range labels {
			for index := -2; index < 200; index++ {
				s := SubSeed(seed, label, index)
				id := fmt.Sprintf("(%d,%q,%d)", seed, label, index)
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision: %s and %s both derive %d", prev, id, s)
				}
				seen[s] = id
			}
		}
	}
}

// TestSubSeedUint64 pins the two entry points to one hash: an int index
// and its uint64 conversion derive the same seed, and index bits above
// 31 reach the hash even where int is 32 bits wide.
func TestSubSeedUint64(t *testing.T) {
	for _, index := range []int{0, 1, 7, -1, -7, math.MaxInt32, math.MinInt32} {
		if got, want := SubSeedUint64(42, "fig12", uint64(index)), SubSeed(42, "fig12", index); got != want {
			t.Errorf("index %d: SubSeedUint64 = %d, SubSeed = %d", index, got, want)
		}
	}
	for _, id := range []uint64{1 << 32, 1 << 40, 1<<63 | 5} {
		if SubSeedUint64(42, "server/session", id) == SubSeedUint64(42, "server/session", uint64(uint32(id))) {
			t.Errorf("id %#x derives the same seed as its low 32 bits", id)
		}
	}
}

// TestSubSeedOrderIndependence: derivation is a pure function — no
// hidden stream is consumed, so deriving sub-streams in any order, or
// after arbitrary draws elsewhere, changes nothing. (Source.Derive
// deliberately does NOT have this property; the engine uses SubSeed for
// exactly this reason.)
func TestSubSeedOrderIndependence(t *testing.T) {
	first := make([]float64, 8)
	for i := range first {
		first[i] = Stream(9, "unit", i).Float64()
	}
	// Re-derive in reverse order, interleaved with unrelated draws.
	noise := New(123)
	for i := len(first) - 1; i >= 0; i-- {
		noise.Normal(0, 1)
		_ = SubSeed(777, "other", i)
		if got := Stream(9, "unit", i).Float64(); got != first[i] {
			t.Fatalf("unit %d stream changed when derived in a different order", i)
		}
	}
}

// TestStreamDecoupled: sibling sub-streams must not be shifted copies of
// one another — unit 1's draws must not re-align with unit 0's at any
// small offset.
func TestStreamDecoupled(t *testing.T) {
	ref := make([]float64, 54)
	src := Stream(5, "unit", 0)
	for i := range ref {
		ref[i] = src.Float64()
	}
	for off := 0; off < 4; off++ {
		other := Stream(5, "unit", 1)
		matches := 0
		for i := 0; i < off; i++ {
			other.Float64()
		}
		for i := 0; i < 50; i++ {
			if other.Float64() == ref[i] {
				matches++
			}
		}
		if matches > 2 {
			t.Errorf("offset %d: sibling streams align on %d of 50 draws", off, matches)
		}
	}
}

func moments(n int, draw func() float64) (mean, variance float64) {
	var s, s2 float64
	for i := 0; i < n; i++ {
		x := draw()
		s += x
		s2 += x * x
	}
	mean = s / float64(n)
	return mean, s2/float64(n) - mean*mean
}

func TestNormalMoments(t *testing.T) {
	src := New(1)
	mean, variance := moments(50000, func() float64 { return src.Normal(3, 2) })
	if math.Abs(mean-3) > 0.05 {
		t.Errorf("mean = %v, want ~3", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Errorf("variance = %v, want ~4", variance)
	}
}

func TestBernoulliRate(t *testing.T) {
	src := New(6)
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if src.Bernoulli(0.3) {
			hits++
		}
	}
	if rate := float64(hits) / n; math.Abs(rate-0.3) > 0.02 {
		t.Errorf("rate = %v, want ~0.3", rate)
	}
}

func TestBitsBalanced(t *testing.T) {
	src := New(7)
	bits := src.Bits(20000)
	ones := 0
	for _, b := range bits {
		if b == 1 {
			ones++
		}
	}
	if r := float64(ones) / float64(len(bits)); math.Abs(r-0.5) > 0.02 {
		t.Errorf("ones rate = %v, want ~0.5", r)
	}
}
