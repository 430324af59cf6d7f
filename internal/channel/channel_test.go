package channel

import (
	"math"
	"testing"

	"repro/internal/mathx"
	"repro/internal/rng"
)

func TestConfigNormalizePresets(t *testing.T) {
	u := Config{Env: Urban, Link: V2I, SpeedAKmh: 50}
	u.Normalize()
	if u.RicianK != 0 {
		t.Error("urban should be Rayleigh (K = 0)")
	}
	if u.SpeedBKmh != 0 {
		t.Error("V2I forces Bob static")
	}
	r := Config{Env: Rural, Link: V2V, SpeedAKmh: 50, SpeedBKmh: 30}
	r.Normalize()
	if r.RicianK <= 0 {
		t.Error("rural should be Rician")
	}
	if !r.ScatterDoppler {
		t.Error("V2V enables scatter Doppler")
	}
}

func TestWavelengthAndCoherence(t *testing.T) {
	cfg := DefaultConfig(Urban, V2I)
	if w := cfg.Wavelength(); math.Abs(w-0.6912) > 1e-3 {
		t.Errorf("wavelength = %v, want ~0.6912 m", w)
	}
	// Paper's example: 40 km/h difference at 434 MHz → T_c ≈ 27 ms.
	cfg.SpeedAKmh = 40
	cfg.Link = V2I
	cfg.Normalize()
	tc := cfg.CoherenceTime()
	if math.Abs(tc-0.0263) > 0.003 {
		t.Errorf("coherence time = %v s, want ~0.026 s", tc)
	}
}

func TestFaderRayleighStatistics(t *testing.T) {
	f := NewFader(20, 0, rng.New(1))
	const n = 20000
	ts, re, im := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range ts {
		ts[i] = float64(i) * 0.01
	}
	f.Gains(ts, re, im)
	var sum float64
	for i := range ts {
		e := math.Hypot(re[i], im[i])
		sum += e * e
	}
	if power := sum / n; math.Abs(power-1) > 0.15 {
		t.Errorf("mean envelope power = %v, want ~1", power)
	}
}

func TestFaderTemporalCorrelation(t *testing.T) {
	// Correlation at lag ≪ 1/fd should be high; at lag ≫ 1/fd low.
	f := NewFader(20, 0, rng.New(2))
	const n = 4000
	ts, a, im := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range ts {
		ts[i] = float64(i) * 0.002
	}
	f.Gains(ts, a, im)
	short := autocorr(a, 1)   // 2 ms: fd·τ = 0.04, J0 ≈ 0.98
	long := autocorr(a, 1000) // 2 s: far past the first J0 zero
	if short < 0.3 {
		t.Errorf("short-lag fading correlation %v too low", short)
	}
	if math.Abs(long) > 0.35 {
		t.Errorf("long-lag fading correlation %v too high", long)
	}
}

func autocorr(xs []float64, lag int) float64 {
	c, _ := mathx.Pearson(xs[:len(xs)-lag], xs[lag:])
	return c
}

func TestShadowCorrelationDecay(t *testing.T) {
	s := NewShadowProcess(8, 20, rng.New(3))
	const n = 4000
	a := make([]float64, n)
	for i := range a {
		a[i] = s.At(float64(i) * 0.5)
	}
	near := autocorr(a, 4)  // 2 m apart
	far := autocorr(a, 400) // 200 m apart
	if near < 0.8 {
		t.Errorf("2 m shadow correlation %v too low", near)
	}
	if far > 0.3 {
		t.Errorf("200 m shadow correlation %v too high", far)
	}
}

func TestShadowStd(t *testing.T) {
	s := NewShadowProcess(6, 25, rng.New(4))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = s.At(float64(i) * 2)
	}
	if std := mathx.Std(xs); math.Abs(std-6) > 0.6 {
		t.Errorf("shadow std = %v, want ~6", std)
	}
}

func TestShadowRandomAccessConsistent(t *testing.T) {
	s := NewShadowProcess(5, 30, rng.New(5))
	v1 := s.At(123.4)
	_ = s.At(999)
	if v2 := s.At(123.4); v1 != v2 {
		t.Error("repeated queries must return the same value")
	}
}

func TestMobilityBounds(t *testing.T) {
	cfg := DefaultConfig(Urban, V2V)
	m := NewMobility(cfg, rng.New(6))
	for i := 0; i < 2000; i++ {
		d := m.Distance(float64(i))
		if d < cfg.MinDistanceM-1e-9 || d > cfg.MaxDistanceM+1e-9 {
			t.Fatalf("distance %v outside [%v, %v]", d, cfg.MinDistanceM, cfg.MaxDistanceM)
		}
	}
}

func TestChannelReciprocity(t *testing.T) {
	// The ground-truth gain process is one function of time — both link
	// directions read the same value by construction.
	m := NewModel(DefaultConfig(Urban, V2V), rng.New(7))
	ts, a, b := make([]float64, 100), make([]float64, 100), make([]float64, 1)
	for i := range ts {
		ts[i] = float64(i) * 0.37
	}
	m.GainsDB(ts, a)
	for i := len(ts) - 1; i >= 0; i-- {
		if m.GainsDB(ts[i:i+1], b); b[0] != a[i] {
			t.Fatal("gain must be deterministic in t")
		}
	}
}

func TestEveChannelsDiffer(t *testing.T) {
	m := NewModel(DefaultConfig(Urban, V2V), rng.New(8))
	const n = 500
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = float64(i) * 0.1
	}
	legit, imitate, eaves := make([]float64, n), make([]float64, n), make([]float64, n)
	m.GainsDB(ts, legit)
	m.EveImitateGainsDB(ts, imitate)
	m.EveEavesdropGainsDB(ts, eaves)
	ci, _ := mathx.Pearson(legit, imitate)
	ce, _ := mathx.Pearson(legit, eaves)
	if ci > 0.995 || ce > 0.995 {
		t.Errorf("Eve gains too correlated: imitate=%v eavesdrop=%v", ci, ce)
	}
	// They still share the large-scale trend, so correlation is positive.
	if ci < 0 {
		t.Errorf("imitating Eve should track the trend, corr=%v", ci)
	}
}

func TestDopplerFormula(t *testing.T) {
	cfg := Config{Env: Urban, Link: V2I, SpeedAKmh: 36, CarrierHz: 434e6} // 10 m/s
	cfg.Normalize()
	want := 10.0 / SpeedOfLight * 434e6
	if fd := cfg.DopplerHz(); math.Abs(fd-want) > 1e-9 {
		t.Errorf("Doppler = %v, want %v", fd, want)
	}
}
