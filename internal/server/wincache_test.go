package server

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// newWinCacheServer builds an unstarted Server (no listeners) so the
// sessionWindows path can be exercised directly. It records into its
// own registry, which it returns.
func newWinCacheServer(t testing.TB, cacheSize int) (*Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	srv, err := New(Config{
		Template:        schemeTemplate(t, "lora-key"),
		Scenario:        loopbackScenario(),
		Seed:            loopbackSeed,
		Workers:         1,
		WindowCacheSize: cacheSize,
		Recorder:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, reg
}

func sameWindows(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestSessionWindowsCachedByteIdentical: the memoized Alice-only
// derivation must be indistinguishable from Alice's side of the joint
// SessionWindows — cold miss, warm hit, and with caching disabled.
func TestSessionWindowsCachedByteIdentical(t *testing.T) {
	srv, _ := newWinCacheServer(t, 0) // 0 → default size
	for _, vehicle := range []uint64{1, 99, 1 << 40} {
		want, _, err := SessionWindows(loopbackScenario(), srv.cfg.Template.Cfg, loopbackSeed, vehicle, 6)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := srv.sessionWindows(vehicle, 6)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := srv.sessionWindows(vehicle, 6)
		if err != nil {
			t.Fatal(err)
		}
		if !sameWindows(want, cold) || !sameWindows(want, warm) {
			t.Fatalf("vehicle %d: cached windows differ from direct derivation", vehicle)
		}
	}
	// A different window count is a different key, not a truncated reuse.
	a4, err := srv.sessionWindows(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(a4) != 4 {
		t.Fatalf("n=4 derivation returned %d windows", len(a4))
	}

	off, _ := newWinCacheServer(t, -1)
	if off.wins != nil {
		t.Fatal("negative WindowCacheSize must disable the cache")
	}
	want, _, err := SessionWindows(loopbackScenario(), off.cfg.Template.Cfg, loopbackSeed, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := off.sessionWindows(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !sameWindows(want, got) {
		t.Fatal("uncached path differs from direct derivation")
	}
}

// TestSessionWindowsCacheEviction churns far past capacity and checks an
// evicted vehicle's rebuilt windows are still exact (purity: eviction
// can only cost time, never correctness).
func TestSessionWindowsCacheEviction(t *testing.T) {
	srv, reg := newWinCacheServer(t, 8)
	want, err := srv.sessionWindows(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v <= 40; v++ {
		if _, err := srv.sessionWindows(v, 2); err != nil {
			t.Fatal(err)
		}
	}
	before := reg.Snapshot().Counters[cacheMissWindows]
	got, err := srv.sessionWindows(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Snapshot().Counters[cacheMissWindows] != before+1 {
		t.Fatal("churn past capacity did not evict vehicle 0")
	}
	if !sameWindows(want, got) {
		t.Fatal("rebuilt-after-eviction windows differ")
	}
}

// TestWindowCacheConcurrentSessions soaks the shared cache through the
// real worker pool under the race detector: many concurrent vehicles, a
// cache small enough to force eviction churn, and repeated IDs so hits,
// misses, and rebuilds interleave across workers.
func TestWindowCacheConcurrentSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("connection soak")
	}
	template := schemeTemplate(t, "lora-key")
	reg := obs.NewRegistry()
	srv, err := New(Config{
		Template:        template,
		Scenario:        loopbackScenario(),
		Seed:            loopbackSeed,
		Workers:         4,
		WindowCacheSize: 4, // force eviction under concurrency
		Retry:           loopbackPolicy,
		HelloTimeout:    10 * time.Second,
		Recorder:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer func() { _ = srv.Close() }()

	const sessions = 24
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := transport.DialTCP(l.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer func() { _ = conn.Close() }()
			clone := template.Clone()
			v := Vehicle{ID: uint64(i % 6), Windows: 2, Session: fmt.Sprintf("soak/%d", i)}
			if _, err := RunVehicle(conn, clone, loopbackScenario(), template.Cfg, loopbackSeed, v,
				protocol.WithRetryPolicy(loopbackPolicy)); err != nil {
				errs <- fmt.Errorf("session %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if reg.Snapshot().Counters[cacheHitWindows] == 0 {
		t.Fatal("repeated vehicle IDs produced no cache hits")
	}
}
