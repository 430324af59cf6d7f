package reconcile

import (
	"errors"

	"repro/internal/rng"
)

// CascadeConfig parameterizes the Brassard–Salvail Cascade reconciler, the
// method the Han et al. baseline uses (group length k = 3, 4 iterations in
// the paper's comparison).
type CascadeConfig struct {
	// InitialBlock is the pass-1 block size k; subsequent passes double it.
	InitialBlock int
	// Passes is the number of Cascade passes.
	Passes int
}

// DefaultCascadeConfig matches the paper's Han et al. setup.
func DefaultCascadeConfig() CascadeConfig { return CascadeConfig{InitialBlock: 3, Passes: 4} }

func (c *CascadeConfig) normalize() {
	if c.InitialBlock <= 0 {
		c.InitialBlock = 3
	}
	if c.Passes <= 0 {
		c.Passes = 4
	}
}

// Cascade reconciles Alice's key against Bob's with the interactive
// Cascade protocol, simulating both ends locally and accounting for every
// parity bit that would cross the public channel. Alice's bits are
// corrected in place on a copy; Bob's key is never modified.
func Cascade(keyAlice, keyBob []byte, cfg CascadeConfig, src *rng.Source) (Outcome, error) {
	if len(keyAlice) != len(keyBob) {
		return Outcome{}, errors.New("reconcile: key length mismatch")
	}
	cfg.normalize()
	n := len(keyAlice)
	alice := make([]byte, n)
	copy(alice, keyAlice)

	out := Outcome{BobKey: keyBob, Method: "cascade"}

	block := cfg.InitialBlock
	for pass := 0; pass < cfg.Passes; pass++ {
		perm := src.Perm(n)
		for lo := 0; lo < n; lo += block {
			hi := lo + block
			if hi > n {
				hi = n
			}
			idx := perm[lo:hi]
			// One parity announcement each way per block.
			out.Messages += 2
			out.SyndromeBits += 2
			out.LeakedKeyBits++
			out.ComputeOps += len(idx) * 2
			if parity(alice, idx) != parity(keyBob, idx) {
				fixOneError(alice, keyBob, idx, &out)
			}
		}
		block *= 2
	}
	out.AliceKey = alice
	return out, nil
}

// fixOneError binary-searches the block for one mismatched bit, counting
// the interactive parity exchanges, and flips it on Alice's side.
func fixOneError(alice, bob []byte, idx []int, out *Outcome) {
	lo, hi := 0, len(idx)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		out.Messages += 2
		out.SyndromeBits += 2
		out.LeakedKeyBits++
		out.ComputeOps += (mid - lo) * 2
		if parity(alice, idx[lo:mid]) != parity(bob, idx[lo:mid]) {
			hi = mid
		} else {
			lo = mid
		}
	}
	alice[idx[lo]] ^= 1
}

func parity(bits []byte, idx []int) byte {
	var p byte
	for _, i := range idx {
		p ^= bits[i]
	}
	return p
}
