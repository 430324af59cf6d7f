package core

import (
	"math"
	"testing"

	"repro/internal/channel"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/trace"
)

// memoCounts gives s its own registry and returns a reader for the
// predictor memo's vk_cache_{hits,misses}_total counters.
func memoCounts(s *System) func() (hits, misses int64) {
	reg := obs.NewRegistry()
	s.SetRecorder(reg)
	return func() (int64, int64) {
		c := reg.Snapshot().Counters
		return c[cacheHitPredictor], c[cacheMissPredictor]
	}
}

// trainSeedSystem trains one Vehicle-Key system at the golden
// configuration (seed 1, 120 windows, 6 epochs) for a seed scenario.
func trainSeedSystem(t *testing.T, env channel.Environment, link channel.LinkType) (*System, *trace.Dataset) {
	t.Helper()
	scn := trace.NewScenario(env, link)
	ds, err := trace.Build(scn, 1, 120, 32, trace.DefaultExtract())
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(1)
	sys := New(DefaultConfig(), src.Derive("sys"))
	train, _, test := ds.Split(0.75, 0.05, src.Derive("split"))
	if _, err := sys.Train(train, 6, src.Derive("train")); err != nil {
		t.Fatal(err)
	}
	return sys, test
}

// TestPredictorMemoByteIdentical: the per-System forward memo serves
// byte-identical results to a cold computation, counts hits, and is
// purged when training moves the weights.
func TestPredictorMemoByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	sys, test := trainSeedSystem(t, channel.Urban, channel.V2I)
	if sys.pmemo == nil {
		t.Fatal("Vehicle-Key must memoize predictor forwards")
	}
	sys.pmemo.Purge()
	counts := memoCounts(sys)
	win := test.Samples[0].Alice
	coldY, coldBits, err := sys.predict(win)
	if err != nil {
		t.Fatal(err)
	}
	warmY, warmBits, err := sys.predict(win)
	if err != nil {
		t.Fatal(err)
	}
	for i := range coldY {
		if math.Float64bits(coldY[i]) != math.Float64bits(warmY[i]) {
			t.Fatalf("memoized yHat differs at %d", i)
		}
	}
	if string(coldBits) != string(warmBits) {
		t.Fatal("memoized bits differ")
	}
	// The warm result must be served from the cache, not recomputed.
	if hits, misses := counts(); hits != 1 || misses != 1 {
		t.Fatalf("expected one miss then one hit, got %d misses and %d hits", misses, hits)
	}
	// A clone never inherits cached forwards.
	if clone := sys.Clone(); clone.pmemo.Len() != 0 {
		t.Fatal("clone inherited memoized forwards")
	}
	// Training purges: fine-tune a single epoch and re-predict.
	ds, err := trace.Build(trace.NewScenario(channel.Urban, channel.V2I), 2, 8, 32, trace.DefaultExtract())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.FineTune(ds, 1, rng.New(5)); err != nil {
		t.Fatal(err)
	}
	if sys.pmemo.Len() != 0 {
		t.Fatal("FineTune did not purge the forward memo")
	}
	freshY, _, err := sys.predict(win)
	if err != nil {
		t.Fatal(err)
	}
	moved := false
	for i := range freshY {
		if math.Float64bits(freshY[i]) != math.Float64bits(coldY[i]) {
			moved = true
			break
		}
	}
	if !moved {
		t.Log("fine-tune left the forward unchanged (allowed, but purge is still required)")
	}
}

// TestNewSchemeMemoizes: a registry-built Vehicle-Key system and its
// clone both memoize predictor forwards (the registry builder must not
// drop the memo New attaches).
func TestNewSchemeMemoizes(t *testing.T) {
	sys, err := NewScheme(DefaultScheme, DefaultConfig(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	win := make([]float64, sys.Cfg.SeqLen)
	for i := range win {
		win[i] = math.Sin(float64(i))
	}
	for name, s := range map[string]*System{"NewScheme": sys, "Clone": sys.Clone()} {
		if s.pmemo == nil {
			t.Fatalf("%s: no predictor memo", name)
		}
		counts := memoCounts(s)
		for i := 0; i < 2; i++ {
			if _, _, err := s.predict(win); err != nil {
				t.Fatal(err)
			}
		}
		if hits, _ := counts(); hits == 0 {
			t.Fatalf("%s: repeated window not served from the memo", name)
		}
	}
}
