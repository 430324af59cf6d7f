package protocol

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/transport"
)

// soakPolicy keeps retransmit timers far above in-memory latency (so the
// schedule is not scheduler-sensitive) but small enough that a 25%-loss
// run completes in seconds.
func soakPolicy() RetryPolicy {
	return RetryPolicy{Timeout: 40 * time.Millisecond, MaxTimeout: 400 * time.Millisecond, Backoff: 2, MaxRetries: 8}
}

// counter reads one counter from a node's registry.
func counter(reg *obs.Registry, name string) int64 { return reg.Snapshot().Counters[name] }

// runUnderFaults runs a full key establishment over a faulty in-memory
// pair and returns both sides' outcomes plus each node's own registry.
func runUnderFaults(t *testing.T, h *soakHarness, cfg transport.FaultConfig, seed int64) (aliceOut, bobOut []KeyOutcome, aliceReg, bobReg *obs.Registry) {
	t.Helper()
	a, b := transport.FaultyPair(cfg, rng.New(seed))
	aliceReg, bobReg = obs.NewRegistry(), obs.NewRegistry()
	alice := NewNode(h.sys, a, "soak", WithRetryPolicy(soakPolicy()), WithRecorder(aliceReg))
	bob := NewNode(h.sys, b, "soak", WithRetryPolicy(soakPolicy()), WithRecorder(bobReg))
	var wg sync.WaitGroup
	wg.Add(2)
	var aliceErr, bobErr error
	// Either side finishing ends the session: close both ends so the
	// peer's tail timeouts collapse instead of running their full budget.
	closeBoth := func() { a.Close(); b.Close() }
	go func() { defer wg.Done(); defer closeBoth(); bobOut, bobErr = bob.RunBob(h.bobWin) }()
	go func() { defer wg.Done(); defer closeBoth(); aliceOut, aliceErr = alice.RunAlice(h.aliceWin) }()
	wg.Wait()
	if aliceErr != nil {
		t.Fatalf("alice: %v", aliceErr)
	}
	if bobErr != nil {
		t.Fatalf("bob: %v", bobErr)
	}
	return aliceOut, bobOut, aliceReg, bobReg
}

type soakHarness struct {
	sys      *core.System
	aliceWin [][]float64
	bobWin   [][]float64
}

// agreedKeys counts rounds confirmed by BOTH sides and fails the test if
// any such round ends with different key bytes — the property the paper's
// confirmation step guarantees regardless of link quality.
func agreedKeys(t *testing.T, label string, aliceOut, bobOut []KeyOutcome) int {
	t.Helper()
	byRound := make(map[int]KeyOutcome, len(aliceOut))
	for _, o := range aliceOut {
		byRound[o.Round] = o
	}
	agreed := 0
	for _, b := range bobOut {
		a, ok := byRound[b.Round]
		if !ok || !a.Confirmed || !b.Confirmed {
			continue
		}
		if !bytes.Equal(a.Key, b.Key) {
			t.Fatalf("%s: round %d confirmed on both sides with diverging keys", label, b.Round)
		}
		if len(a.Key) != 16 {
			t.Fatalf("%s: round %d key length %d", label, b.Round, len(a.Key))
		}
		agreed++
	}
	return agreed
}

// TestProtocolUnderFaults soaks the full key establishment across a
// loss × fault-mode grid with fixed seeds. The retry/resync layer must
// keep the agreed-key count within 80% of the fault-free run in every
// cell, with byte-identical keys on both ends throughout.
func TestProtocolUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	sys, aliceWin, bobWin := trainSystem(t)
	h := &soakHarness{sys: sys, aliceWin: aliceWin, bobWin: bobWin}

	baseAlice, baseBob, _, _ := runUnderFaults(t, h, transport.FaultConfig{}, 1000)
	baseline := agreedKeys(t, "fault-free", baseAlice, baseBob)
	if baseline < 5 {
		t.Fatalf("fault-free baseline agreed only %d keys; soak thresholds would be vacuous", baseline)
	}
	minAgreed := (baseline*8 + 9) / 10 // ceil(0.8 × baseline)

	cells := []struct {
		name string
		cfg  transport.FaultConfig
	}{
		{"loss00/reorder", transport.FaultConfig{Drop: 0.00, Reorder: 0.20}},
		{"loss00/duplicate", transport.FaultConfig{Drop: 0.00, Duplicate: 0.20}},
		{"loss00/corrupt", transport.FaultConfig{Drop: 0.00, Corrupt: 0.20}},
		{"loss10/reorder", transport.FaultConfig{Drop: 0.10, Reorder: 0.20}},
		{"loss10/duplicate", transport.FaultConfig{Drop: 0.10, Duplicate: 0.20}},
		{"loss10/corrupt", transport.FaultConfig{Drop: 0.10, Corrupt: 0.20}},
		{"loss25/reorder", transport.FaultConfig{Drop: 0.25, Reorder: 0.20}},
		{"loss25/duplicate", transport.FaultConfig{Drop: 0.25, Duplicate: 0.20}},
		{"loss25/corrupt", transport.FaultConfig{Drop: 0.25, Corrupt: 0.20}},
	}
	for i, cell := range cells {
		cell := cell
		seed := int64(2000 + 17*i)
		t.Run(cell.name, func(t *testing.T) {
			aliceOut, bobOut, aliceReg, bobReg := runUnderFaults(t, h, cell.cfg, seed)
			agreed := agreedKeys(t, cell.name, aliceOut, bobOut)
			t.Logf("%s: agreed=%d (baseline %d, floor %d) bob=%v alice=%v",
				cell.name, agreed, baseline, minAgreed, bobReg.Snapshot().Counters, aliceReg.Snapshot().Counters)
			if agreed < minAgreed {
				t.Fatalf("%s: agreed %d keys, below floor %d (baseline %d)", cell.name, agreed, minAgreed, baseline)
			}
			retransmits := counter(aliceReg, obs.ProtocolRetransmits) + counter(bobReg, obs.ProtocolRetransmits)
			if cell.cfg.Enabled() && retransmits == 0 && cell.cfg.Drop > 0 {
				t.Fatalf("%s: loss injected but nobody retransmitted — fault path untested", cell.name)
			}
		})
	}
}

// TestProtocolAbandonsDeadPeer pins graceful degradation: with the link
// dropping everything, both sides must give up in bounded time with
// failed (not fatal) outcomes.
func TestProtocolAbandonsDeadPeer(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	sys, aliceWin, bobWin := trainSystem(t)
	h := &soakHarness{sys: sys, aliceWin: aliceWin[:3], bobWin: bobWin[:3]}
	fast := RetryPolicy{Timeout: 5 * time.Millisecond, MaxTimeout: 10 * time.Millisecond, Backoff: 2, MaxRetries: 2}

	a, b := transport.FaultyPair(transport.FaultConfig{Drop: 1}, rng.New(77))
	bobReg := obs.NewRegistry()
	alice := NewNode(h.sys, a, "dead", WithRetryPolicy(fast))
	bob := NewNode(h.sys, b, "dead", WithRetryPolicy(fast), WithRecorder(bobReg))
	var wg sync.WaitGroup
	wg.Add(2)
	var aliceOut, bobOut []KeyOutcome
	var aliceErr, bobErr error
	go func() { defer wg.Done(); bobOut, bobErr = bob.RunBob(h.bobWin) }()
	go func() { defer wg.Done(); aliceOut, aliceErr = alice.RunAlice(h.aliceWin) }()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("protocol did not abandon a dead link in bounded time")
	}
	a.Close()
	b.Close()
	if aliceErr != nil || bobErr != nil {
		t.Fatalf("dead link must degrade, not error: alice=%v bob=%v", aliceErr, bobErr)
	}
	for _, o := range append(aliceOut, bobOut...) {
		if o.Confirmed {
			t.Fatal("confirmed a key over a link that delivered nothing")
		}
	}
	if got := counter(bobReg, obs.ProtocolAbandonedWindows); got != 3 {
		t.Fatalf("bob abandoned %d windows, want all 3", got)
	}
}
