// Package-level memoization of the reconcilers' pure derived artifacts
// (PR 8). Every cached value is fully determined by its key and
// read-only after construction:
//
//   - BloomFilter: permutation + pad derived by SHA-256 from (n, salt);
//     Transform/Inverse only read it.
//   - CS sensing matrix: ±1/√m entries derived from (m, n, seed); the
//     ISTA decoder only reads it.
//   - Cascade pass permutation: Fisher–Yates order derived from
//     (salt, pass, n); the encode/correct passes only read it.
//
// Purity makes the caches safe to share across the server worker pool
// (memo.LRU is mutex-guarded, and a racing duplicate construction is
// identical by determinism); equivalence_test.go proves cached == fresh
// byte-for-byte and the race soak in the server package exercises the
// sharing.
package reconcile

import "repro/internal/memo"

type bloomKey struct {
	n    int
	salt string
}

type phiKey struct {
	m, n int
	seed int64
}

type permKey struct {
	salt string
	pass int
	n    int
}

var (
	// Sized for serving reality: sessions reuse one salt per stream
	// block counter (bounded churn), experiments sweep a few matrix
	// shapes, and cascade touches Passes perms per salt.
	bloomCache = memo.NewLRU[bloomKey, *BloomFilter](128)
	phiCache   = memo.NewLRU[phiKey, []float64](32)
	permCache  = memo.NewLRU[permKey, []int](256)
)

// bloomFor returns the Bloom transform for (n, salt), constructing it
// at most once per cached key. The returned filter is shared and
// read-only; construction is deterministic, so every caller sees the
// same permutation regardless of which goroutine built it.
func bloomFor(n int, salt []byte) *BloomFilter {
	k := bloomKey{n: n, salt: string(salt)}
	if bf, ok := bloomCache.Get(k); ok {
		return bf
	}
	bf := NewBloomFilter(n, salt)
	bloomCache.Put(k, bf)
	return bf
}

// sensingMatrixCached is the memoized sensingMatrix. The CS halves only
// read the returned slice.
func sensingMatrixCached(m, n int, seed int64) []float64 {
	k := phiKey{m: m, n: n, seed: seed}
	if phi, ok := phiCache.Get(k); ok {
		return phi
	}
	phi := sensingMatrix(m, n, seed)
	phiCache.Put(k, phi)
	return phi
}

// cascadePermCached is the memoized cascadePerm. Both ends of a pass
// only read the returned order.
func cascadePermCached(salt []byte, pass, n int) []int {
	k := permKey{salt: string(salt), pass: pass, n: n}
	if p, ok := permCache.Get(k); ok {
		return p
	}
	p := cascadePerm(salt, pass, n)
	permCache.Put(k, p)
	return p
}

// ResetCaches drops every cached artifact (tests only; values are pure,
// so this is never needed for correctness).
func ResetCaches() {
	bloomCache.Purge()
	phiCache.Purge()
	permCache.Purge()
}
