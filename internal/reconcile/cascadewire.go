package reconcile

import (
	"errors"
	"hash/fnv"

	"repro/internal/rng"
)

// This file is the one-shot wire form of Cascade. The interactive
// protocol (Cascade in cascade.go) alternates parity queries with
// binary-search replies; over a lossy half-duplex LoRa link that
// chattiness is exactly what the paper's baselines suffer from. For the
// unified protocol path Bob instead publishes, per pass, only the
// top-level parity of each block. Pass permutations are derived from
// the public session salt, so both sides compute identical block
// layouts without interaction; Alice decodes her mismatches against
// the published parities with an iterative majority-vote bit flip
// (each bit sits in one block per pass, so the per-pass parity
// mismatches of its blocks vote on whether it is in error).
//
// Publishing any more than the top-level parities is unsafe in a
// one-shot exchange: the full bisection tree the interactive search
// could query linearly determines every key bit, handing a passive
// eavesdropper the whole block. The price of staying safe is residual
// mismatch — unlike interactive Cascade, the one-shot decode cannot
// query further parities, so dense error patterns may survive and are
// caught by the protocol's MAC confirmation instead. Every published
// parity is one linear equation over the key bits; callers must treat
// CascadeSyndromeBits as publicly leaked key bits and refuse
// configurations where it reaches the block size.

// CascadeSyndromeBits returns how many parity bits the one-shot wire
// form publishes for an n-bit block — one per top-level Cascade block
// per pass. Each is a linear equation over the key bits, so this is
// exactly the eavesdropper leakage of CascadeSyndromeEncode.
func CascadeSyndromeBits(n int, cfg CascadeConfig) int {
	cfg.normalize()
	total := 0
	block := cfg.InitialBlock
	for pass := 0; pass < cfg.Passes; pass++ {
		total += (n + block - 1) / block
		block *= 2
	}
	return total
}

// cascadePerm derives pass p's shuffle of n positions from the salt.
func cascadePerm(salt []byte, pass, n int) []int {
	h := fnv.New64a()
	h.Write(salt)
	seed := int64(h.Sum64() & 0x7fffffffffffffff)
	return rng.New(rng.SubSeed(seed, "cascade-pass", pass)).Perm(n)
}

// CascadeSyndromeEncode is Bob's half: the top-level parity of every
// Cascade block in every pass, flattened into one code vector of
// CascadeSyndromeBits(len(keyBob), cfg) bits.
func CascadeSyndromeEncode(keyBob, salt []byte, cfg CascadeConfig) []float64 {
	cfg.normalize()
	n := len(keyBob)
	var code []float64
	block := cfg.InitialBlock
	for pass := 0; pass < cfg.Passes; pass++ {
		perm := cascadePermCached(salt, pass, n)
		for lo := 0; lo < n; lo += block {
			hi := lo + block
			if hi > n {
				hi = n
			}
			code = append(code, float64(parity(keyBob, perm[lo:hi])))
		}
		block *= 2
	}
	return code
}

// CascadeSyndromeCorrect is Alice's half: an iterative majority-vote
// decode of her block against Bob's published per-pass block parities.
// A bit whose containing block mismatches in a strict majority of
// passes is flipped (ties broken toward the lowest index); each such
// flip strictly shrinks the number of mismatched blocks, so the loop
// terminates. Residual mismatch the vote cannot localize is left in
// place for the protocol's MAC confirmation to reject. Malformed codes
// (wrong length, non-bit values) are rejected with an error, never a
// panic.
func CascadeSyndromeCorrect(keyAlice []byte, code []float64, salt []byte, cfg CascadeConfig) ([]byte, error) {
	cfg.normalize()
	n := len(keyAlice)
	if len(code) != CascadeSyndromeBits(n, cfg) {
		return nil, errors.New("reconcile: cascade syndrome length mismatch")
	}
	alice := make([]byte, n)
	copy(alice, keyAlice)

	// Lay out every pass once: which block each bit falls in, the block
	// member lists, and whether each block's parity currently mismatches
	// Bob's published one.
	blockOf := make([][]int, cfg.Passes)   // pass -> bit -> block index
	members := make([][][]int, cfg.Passes) // pass -> block -> member bits
	mismatch := make([][]bool, cfg.Passes) // pass -> block -> parity differs
	pos := 0
	block := cfg.InitialBlock
	for pass := 0; pass < cfg.Passes; pass++ {
		perm := cascadePermCached(salt, pass, n)
		blockOf[pass] = make([]int, n)
		for lo := 0; lo < n; lo += block {
			hi := lo + block
			if hi > n {
				hi = n
			}
			idx := perm[lo:hi]
			v := code[pos]
			pos++
			if v != 0 && v != 1 {
				return nil, errors.New("reconcile: cascade syndrome is not a bit vector")
			}
			b := len(mismatch[pass])
			for _, i := range idx {
				blockOf[pass][i] = b
			}
			members[pass] = append(members[pass], idx)
			mismatch[pass] = append(mismatch[pass], parity(alice, idx) != byte(v))
		}
		block *= 2
	}

	flip := func(i int) {
		alice[i] ^= 1
		for pass := 0; pass < cfg.Passes; pass++ {
			b := blockOf[pass][i]
			mismatch[pass][b] = !mismatch[pass][b]
		}
	}

	// Phase 0: exhaustive residual search. If every error sits in its
	// own mismatched pass-0 block — by far the common pattern, pass-0
	// blocks being the smallest — the error set is one choice of a
	// single bit per mismatched block, and the remaining passes'
	// parities check each choice. Enumerate the (bounded) product of
	// choices in lexicographic order and apply the first fully
	// consistent one; an aliased or unrepresentable pattern falls
	// through to the vote phases and ultimately to the MAC.
	exhaustive := func() bool {
		var blocks [][]int
		for b, mm := range mismatch[0] {
			if mm {
				blocks = append(blocks, members[0][b])
			}
		}
		m := len(blocks)
		if m == 0 {
			return false
		}
		combos := 1
		for _, blk := range blocks {
			if combos *= len(blk); combos > 1<<14 {
				return false
			}
		}
		choice := make([]int, m)
		cand := make([]int, m)
		odd := make(map[int]bool, m)
		for {
			for k, c := range choice {
				cand[k] = blocks[k][c]
			}
			ok := true
			for pass := 1; pass < cfg.Passes && ok; pass++ {
				for _, i := range cand {
					b := blockOf[pass][i]
					odd[b] = !odd[b]
				}
				for b, mm := range mismatch[pass] {
					if mm != odd[b] {
						ok = false
						break
					}
				}
				for b := range odd {
					delete(odd, b)
				}
			}
			if ok {
				for _, i := range cand {
					flip(i)
				}
				return true
			}
			k := m - 1
			for ; k >= 0; k-- {
				choice[k]++
				if choice[k] < len(blocks[k]) {
					break
				}
				choice[k] = 0
			}
			if k < 0 {
				return false
			}
		}
	}

	// Phase 1: majority-vote bit flipping. A flip is only accepted when
	// more than half of the bit's containing blocks mismatch, which
	// lowers the total mismatched-block count every iteration; the count
	// bounds the loop, the cap is belt and braces.
	majority := func() {
		need := cfg.Passes/2 + 1
		for iter := 0; iter < n*cfg.Passes; iter++ {
			best, bestScore := -1, need-1
			for i := 0; i < n; i++ {
				score := 0
				for pass := 0; pass < cfg.Passes; pass++ {
					if mismatch[pass][blockOf[pass][i]] {
						score++
					}
				}
				if score > bestScore {
					best, bestScore = i, score
				}
			}
			if best < 0 {
				return
			}
			flip(best)
		}
	}

	// pairGain is the drop in mismatched-block count from flipping both
	// i and j: a pass where they share a block is untouched (two flips
	// cancel in the parity), elsewhere each toggles its own block.
	pairGain := func(i, j int) int {
		gain := 0
		for pass := 0; pass < cfg.Passes; pass++ {
			bi, bj := blockOf[pass][i], blockOf[pass][j]
			if bi == bj {
				continue
			}
			for _, b := range [2]int{bi, bj} {
				if mismatch[pass][b] {
					gain++
				} else {
					gain--
				}
			}
		}
		return gain
	}

	// Phase 2: pair search. The majority vote stalls when two errors
	// share blocks in half the passes (their colliding blocks stay
	// clean, so each bit's vote drops to a tie); the true pair then
	// clears its remaining mismatched blocks, so pick the pair with the
	// largest strictly positive gain and re-run the vote. Every accepted
	// flip lowers the mismatched-block count, which bounds the outer
	// loop. Whatever no phase can localize is left in place for the
	// protocol's MAC confirmation to reject.
	if !exhaustive() {
		for {
			majority()
			best, bestGain := [2]int{-1, -1}, 0
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if g := pairGain(i, j); g > bestGain {
						best, bestGain = [2]int{i, j}, g
					}
				}
			}
			if bestGain <= 0 {
				break
			}
			flip(best[0])
			flip(best[1])
		}
	}
	return alice, nil
}
