package memo

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestLRUBasics(t *testing.T) {
	l := NewLRU[string, int](2)
	if _, ok := l.Get("a"); ok {
		t.Fatal("empty cache returned a hit")
	}
	l.Put("a", 1)
	l.Put("b", 2)
	if v, ok := l.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	// "a" is now most recent; inserting "c" must evict "b".
	l.Put("c", 3)
	if _, ok := l.Get("b"); ok {
		t.Fatal("b should have been evicted (LRU order)")
	}
	if v, ok := l.Get("a"); !ok || v != 1 {
		t.Fatalf("a lost after eviction: %d, %v", v, ok)
	}
	if v, ok := l.Get("c"); !ok || v != 3 {
		t.Fatalf("c missing: %d, %v", v, ok)
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
}

func TestLRUUpdateRefreshes(t *testing.T) {
	l := NewLRU[int, int](2)
	l.Put(1, 10)
	l.Put(2, 20)
	l.Put(1, 11) // refresh both value and recency
	l.Put(3, 30) // must evict 2, not 1
	if _, ok := l.Get(2); ok {
		t.Fatal("2 should have been evicted")
	}
	if v, _ := l.Get(1); v != 11 {
		t.Fatalf("updated value lost: %d", v)
	}
}

// TestLRUEvictionChurn pushes far more keys than capacity and checks
// the bound holds and exactly the most recent keys survive.
func TestLRUEvictionChurn(t *testing.T) {
	const cap = 16
	l := NewLRU[int, int](cap)
	for i := 0; i < 1000; i++ {
		l.Put(i, i*i)
	}
	if l.Len() != cap {
		t.Fatalf("Len = %d, want %d", l.Len(), cap)
	}
	for i := 1000 - cap; i < 1000; i++ {
		if v, ok := l.Get(i); !ok || v != i*i {
			t.Fatalf("recent key %d missing or wrong: %d, %v", i, v, ok)
		}
	}
	for i := 0; i < 1000-cap; i++ {
		if _, ok := l.Get(i); ok {
			t.Fatalf("evicted key %d survived churn", i)
		}
	}
}

func TestGetOrCompute(t *testing.T) {
	l := NewLRU[string, string](4)
	calls := 0
	compute := func() string { calls++; return "v" }
	if got := l.GetOrCompute("k", compute); got != "v" {
		t.Fatalf("GetOrCompute = %q", got)
	}
	if got := l.GetOrCompute("k", compute); got != "v" {
		t.Fatalf("GetOrCompute (cached) = %q", got)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
}

func TestPurge(t *testing.T) {
	l := NewLRU[int, int](4)
	l.Put(1, 1)
	l.Put(2, 2)
	l.Purge()
	if l.Len() != 0 {
		t.Fatalf("Len after Purge = %d", l.Len())
	}
	if _, ok := l.Get(1); ok {
		t.Fatal("purged entry still present")
	}
	l.Put(3, 3)
	if v, ok := l.Get(3); !ok || v != 3 {
		t.Fatalf("cache unusable after Purge: %d, %v", v, ok)
	}
}

// TestNilLRU: a nil cache is the documented "caching off" mode — every
// method is a safe no-op and GetOrCompute always computes.
func TestNilLRU(t *testing.T) {
	var l *LRU[int, int]
	if _, ok := l.Get(1); ok {
		t.Fatal("nil Get hit")
	}
	l.Put(1, 1)
	l.Purge()
	if l.Len() != 0 {
		t.Fatal("nil Len != 0")
	}
	if got := l.GetOrCompute(1, func() int { return 7 }); got != 7 {
		t.Fatalf("nil GetOrCompute = %d", got)
	}
}

// TestLRUConcurrentSoak hammers one cache from many goroutines with
// overlapping key ranges (forcing hits, misses, and evictions to
// interleave) and verifies values stay pure. Run under -race via
// scripts/test-race.sh.
func TestLRUConcurrentSoak(t *testing.T) {
	const goroutines, perGoroutine = 8, 2000
	l := NewLRU[int, string](32)
	var computes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				k := (g*37 + i) % 64 // overlapping ranges across goroutines
				want := fmt.Sprintf("v%d", k)
				got := l.GetOrCompute(k, func() string { computes.Add(1); return want })
				if got != want {
					t.Errorf("impure value for %d: %q", k, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := l.Len(); n > 32 {
		t.Fatalf("capacity exceeded under churn: %d", n)
	}
	// Every miss computes once; every hit skips the computation.
	if n := computes.Load(); n == 0 || n == goroutines*perGoroutine {
		t.Fatalf("soak did not exercise both paths: %d computes of %d lookups", n, goroutines*perGoroutine)
	}
}
