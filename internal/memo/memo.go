// Package memo provides the bounded, thread-safe LRU cache behind the
// pipeline's memoized pure computations (PR 8): predictor forwards
// keyed by window fingerprint, reconciler matrices keyed by
// (salt, size), and per-vehicle SessionWindows in internal/server.
//
// Safety rests on a usage contract, not on copying: every value stored
// here must be PURE (fully determined by its key) and READ-ONLY after
// construction. Under that contract it is harmless for two goroutines
// to race on a miss — both compute the same value and either copy may
// win the Put — so GetOrCompute deliberately computes outside the lock
// and never blocks readers behind a slow derivation.
package memo

import (
	"container/list"
	"sync"
)

type entry[K comparable, V any] struct {
	key K
	val V
}

// LRU is a mutex-guarded least-recently-used map with a hard capacity.
// The zero value is not usable; construct with NewLRU.
type LRU[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recent
	items map[K]*list.Element
}

// NewLRU returns a cache bounded to capacity entries. capacity < 1 is
// clamped to 1: a memo that can hold nothing is never what a caller
// wants, and callers that want caching off simply keep a nil *LRU
// (all methods on nil are safe no-op misses).
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU[K, V]{
		cap:   capacity,
		order: list.New(),
		items: make(map[K]*list.Element, capacity),
	}
}

// Get returns the cached value for key, marking it most-recently-used.
func (l *LRU[K, V]) Get(key K) (V, bool) {
	var zero V
	if l == nil {
		return zero, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.items[key]
	if !ok {
		return zero, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put inserts or refreshes key, evicting the least-recently-used entry
// when the cache is full.
func (l *LRU[K, V]) Put(key K, val V) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.items[key]; ok {
		el.Value.(*entry[K, V]).val = val
		l.order.MoveToFront(el)
		return
	}
	if l.order.Len() >= l.cap {
		oldest := l.order.Back()
		l.order.Remove(oldest)
		delete(l.items, oldest.Value.(*entry[K, V]).key)
	}
	l.items[key] = l.order.PushFront(&entry[K, V]{key: key, val: val})
}

// GetOrCompute returns the cached value for key or computes, stores,
// and returns it. compute runs OUTSIDE the lock: values are pure, so a
// racing duplicate computation is wasted work at worst, never a wrong
// answer, and a slow compute never stalls other keys.
func (l *LRU[K, V]) GetOrCompute(key K, compute func() V) V {
	if l == nil {
		return compute()
	}
	if v, ok := l.Get(key); ok {
		return v
	}
	v := compute()
	l.Put(key, v)
	return v
}

// Len reports the current entry count.
func (l *LRU[K, V]) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.order.Len()
}

// Purge drops every entry. Used when the upstream
// purity assumption breaks — e.g. a predictor retrain invalidates all
// memoized forwards.
func (l *LRU[K, V]) Purge() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.order.Init()
	clear(l.items)
}
