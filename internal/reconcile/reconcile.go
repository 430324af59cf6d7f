package reconcile

import "repro/internal/mathx"

// Outcome reports one reconciliation run, including the cost accounting
// used to reproduce the paper's Fig. 11 computation-cost comparison.
type Outcome struct {
	AliceKey []byte // Alice's key after correction
	BobKey   []byte // Bob's (reference) key

	Messages      int    // protocol messages exchanged
	SyndromeBits  int    // public bits transmitted
	ComputeOps    int    // abstract multiply-accumulate count
	LeakedKeyBits int    // upper bound on key bits revealed publicly
	Method        string // which reconciler produced this outcome
}

// Agreement returns the post-reconciliation bit agreement rate.
func (o Outcome) Agreement() float64 { return mathx.Agreement(o.AliceKey, o.BobKey) }

// Exact reports whether the two keys agree on every bit.
func (o Outcome) Exact() bool { return o.Agreement() == 1 }
