package exp

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/trace"
)

// DefaultWorkers is the fan-out width used when RunConfig.Parallelism
// is 0: one worker per CPU.
func DefaultWorkers() int { return runtime.NumCPU() }

// workers resolves the configured fan-out width: Parallelism if set,
// otherwise one worker per CPU.
func (c RunConfig) workers() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return DefaultWorkers()
}

// forEach runs n independent units of work across min(workers, n)
// goroutines. Unit i receives the sub-stream rng.Stream(cfg.Seed, label,
// i) as its only source of randomness, so what a unit computes depends
// only on (seed, label, i) — never on which worker picked it up or in
// what order. fn must write its result into storage indexed by i (its
// own slot of a pre-sized slice) and must not touch other units' slots;
// under that discipline the assembled output is identical for any worker
// count, including 1.
//
// Every unit runs even after a failure; the returned error is the
// lowest-index one, so error reporting is deterministic too.
func forEach(cfg RunConfig, label string, n int, fn func(i int, src *rng.Source) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	// Per-unit wall time flows one-way into the recorder; the label is
	// baked once per fan-out, not per unit.
	rec := cfg.recorder()
	unitName := obs.Labeled(obs.ExpUnitSeconds, "exp", label)
	run := func(i int) error {
		//vklint:ignore detrand -- wall time feeds only the metrics recorder, never a report
		started := time.Now()
		err := fn(i, rng.Stream(cfg.Seed, label, i))
		//vklint:ignore detrand -- wall time feeds only the metrics recorder, never a report
		rec.Observe(unitName, time.Since(started).Seconds())
		return err
	}
	w := cfg.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = run(i)
		}
		return firstError(errs)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = run(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return firstError(errs)
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// parMap is forEach collecting one result per unit, in index order.
func parMap[T any](cfg RunConfig, label string, n int, fn func(i int, src *rng.Source) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := forEach(cfg, label, n, func(i int, src *rng.Source) error {
		v, err := fn(i, src)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RunAll executes the given experiment IDs (all registered ones when ids
// is nil) with cross-experiment concurrency and returns the reports in
// input order. Every ID is validated up front, so a typo fails before
// any training starts, with the same stable error Run produces.
func RunAll(ids []string, cfg RunConfig) ([]Report, error) {
	if ids == nil {
		ids = IDs()
	}
	for _, id := range ids {
		if _, ok := registry[id]; !ok {
			return nil, unknownIDError(id)
		}
	}
	return parMap(cfg, "runall", len(ids), func(i int, _ *rng.Source) (Report, error) {
		return Run(ids[i], cfg)
	})
}

// ---------------------------------------------------------------------
// Trained-system cache.
//
// Most figures train the same (scenario, config) BiLSTM: fig10, fig12,
// fig13, fig15, tab2, tab3 and fig17 all need a system trained on one of
// the four canonical scenarios at the default config. Training dominates
// their cost, so RunAll would otherwise retrain identical predictors up
// to seven times. The cache trains each distinct key once and hands out
// clones — forward passes mutate LSTM caches, so every caller gets a
// private System.Clone() it can use without synchronization; the cached
// original is only ever cloned, never run. The train/test datasets are
// shared read-only.
//
// Determinism: the training seed chain is derived from the key alone
// (root seed, scenario/config fingerprint) — never from which figure
// asked first — so a report is the same whether its training was a cache
// hit or a miss.
// ---------------------------------------------------------------------

type trainedEntry struct {
	once  sync.Once
	err   error
	sys   *core.System
	train *trace.Dataset
	test  *trace.Dataset
}

var trainedCache sync.Map // string key -> *trainedEntry

// fingerprint canonically identifies a training problem. It also seeds
// every experiment's dataset and training streams, so its rendering is
// frozen: sysCfg prints as %+v did while core.Config still carried two
// since-removed inference-mode fields (the AE config's Reference flag
// and the trailing FastPath string), both zero in every seed string.
// Dropping the splice would move every report.
func fingerprint(sc trace.Scenario, cfg RunConfig, sysCfg core.Config) string {
	c := fmt.Sprintf("%+v", sysCfg)
	c = strings.Replace(c, "} AEEpochs:", " Reference:false} AEEpochs:", 1)
	c = strings.TrimSuffix(c, "}") + " FastPath:}"
	return fmt.Sprintf("%+v|%s|seed=%d samples=%d epochs=%d", sc, c, cfg.Seed, cfg.Samples, cfg.Epochs)
}

// trainFor builds and trains a Vehicle-Key system for one scenario,
// serving repeated requests for the same (scenario, run config, system
// config) from the in-process cache. The returned System is a private
// clone, safe to use on the calling goroutine; the datasets are shared
// and must be treated as read-only.
func trainFor(sc trace.Scenario, cfg RunConfig, sysCfg core.Config) (*core.System, *trace.Dataset, *trace.Dataset, error) {
	fp := fingerprint(sc, cfg, sysCfg)
	v, _ := trainedCache.LoadOrStore(fp, &trainedEntry{})
	e := v.(*trainedEntry)
	e.once.Do(func() {
		ds, err := trace.Build(sc, rng.SubSeed(cfg.Seed, "train-ds/"+fp, 0), cfg.Samples, sysCfg.SeqLen, trace.DefaultExtract())
		if err != nil {
			e.err = err
			return
		}
		src := rng.Stream(cfg.Seed, "train/"+fp, 0)
		train, _, test := ds.Split(0.75, 0.05, src.Derive("split"))
		sys := core.New(sysCfg, src.Derive("sys"))
		if _, err := sys.Train(train, cfg.Epochs, src.Derive("train")); err != nil {
			e.err = err
			return
		}
		e.sys = sys
		e.train, e.test = train, test
	})
	if e.err != nil {
		return nil, nil, nil, e.err
	}
	// Clone serializes the trained stages and loads them into a fresh
	// System (verified equivalent to an explicit Save/Load round-trip),
	// so concurrent callers never share mutable predictor state.
	sys := e.sys.Clone()
	// The clone is private to the calling goroutine, so attaching the run's
	// recorder here is race-free; phase timings flow one way into it and
	// never feed back into results.
	sys.SetRecorder(cfg.recorder())
	return sys, e.train, e.test, nil
}

// memoCache deduplicates whole sub-computations that several experiments
// share (fig12/fig13's comparison sweep, tab3/fig17's power profile).
// Keys include Parallelism so that the equivalence tests comparing
// worker counts never serve one count's result to the other.
var memoCache sync.Map // string key -> *memoEntry

type memoEntry struct {
	once sync.Once
	val  any
	err  error
}

func memo[T any](key string, cfg RunConfig, compute func() (T, error)) (T, error) {
	// cacheKey, not %+v: the config's Obs recorder is an interface whose
	// rendering would make equal configs miss (and unequal ones collide).
	full := fmt.Sprintf("%s|%s", key, cfg.cacheKey())
	v, _ := memoCache.LoadOrStore(full, &memoEntry{})
	e := v.(*memoEntry)
	e.once.Do(func() { e.val, e.err = compute() })
	if e.err != nil {
		var zero T
		return zero, e.err
	}
	return e.val.(T), nil
}

// resetCaches drops every cached trained system and memoized
// sub-computation. Tests use it to prove that reports do not depend on
// cache warmth.
func resetCaches() {
	trainedCache.Range(func(k, _ any) bool { trainedCache.Delete(k); return true })
	memoCache.Range(func(k, _ any) bool { memoCache.Delete(k); return true })
}

// sortedKeys is a debugging helper for cache inspection in tests.
func cachedTrainKeys() []string {
	var out []string
	trainedCache.Range(func(k, _ any) bool { out = append(out, k.(string)); return true })
	sort.Strings(out)
	return out
}
