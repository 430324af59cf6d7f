package attack

import (
	"sync"
	"testing"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/transport"
)

func trainSystem(t *testing.T) (*core.System, *trace.Dataset) {
	t.Helper()
	sc := trace.NewScenario(channel.Urban, channel.V2V)
	ds, err := trace.Build(sc, 51, 260, 32, trace.DefaultExtract())
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(52)
	train, _, test := ds.Split(0.8, 0.05, src.Derive("split"))
	sys := core.New(core.DefaultConfig(), src.Derive("sys"))
	if _, err := sys.Train(train, 20, src.Derive("train")); err != nil {
		t.Fatal(err)
	}
	return sys, test
}

func TestPassiveAttackers(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	sys, test := trainSystem(t)
	legit, err := sys.Evaluate(test, []byte("s"))
	if err != nil {
		t.Fatal(err)
	}
	for _, imitate := range []bool{false, true} {
		m, err := sys.EvaluateEve(test, imitate, []byte("s"))
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("imitate=%v: eve=%.4f legit=%.4f", imitate, m.PostKAR, legit.PostKAR)
		if m.PostKAR >= legit.PostKAR-0.15 {
			t.Errorf("imitate=%v: Eve %.4f too close to legit %.4f", imitate, m.PostKAR, legit.PostKAR)
		}
		if m.ExactRate > 0 {
			t.Error("Eve completed a key")
		}
	}
}

func TestKeyProbability(t *testing.T) {
	if p := KeyProbability(0.5, 128); p > 3e-39 {
		t.Errorf("0.5^128 = %v too large", p)
	}
	if p := KeyProbability(0.7, 128); p > 1e-19 {
		t.Errorf("0.7^128 = %v too large", p)
	}
	if p := KeyProbability(1, 128); p != 1 {
		t.Errorf("1^128 = %v", p)
	}
}

// runProtocolWith runs the protocol with the given Bob-side connection
// wrapper and reports the outcomes.
func runProtocolWith(t *testing.T, sys *core.System, test *trace.Dataset, wrap func(transport.Conn) transport.Conn) ([]protocol.KeyOutcome, []protocol.KeyOutcome) {
	t.Helper()
	var aliceWin, bobWin [][]float64
	for _, smp := range test.Samples {
		aliceWin = append(aliceWin, smp.Alice)
		bobWin = append(bobWin, smp.Bob)
	}
	a, b := transport.Pair()
	defer a.Close()
	defer b.Close()
	bobConn := wrap(b)
	alice := protocol.NewNode(sys, a, "sess")
	bob := protocol.NewNode(sys, bobConn, "sess")
	var aliceOut, bobOut []protocol.KeyOutcome
	var wg sync.WaitGroup
	wg.Add(2)
	var aliceErr, bobErr error
	// When interference makes one side abort, close both conns so the
	// peer's blocking Recv unblocks instead of deadlocking the test.
	closeBoth := func() { a.Close(); b.Close() }
	go func() { defer wg.Done(); defer closeBoth(); bobOut, bobErr = bob.RunBob(bobWin) }()
	go func() { defer wg.Done(); defer closeBoth(); aliceOut, aliceErr = alice.RunAlice(aliceWin) }()
	wg.Wait()
	// Tampering can legitimately end the run early with an error on one
	// side; what matters is checked by callers.
	_ = aliceErr
	_ = bobErr
	return aliceOut, bobOut
}

// assertNoDivergingKeys is the essential active-attack property: under
// any on-path interference, a round that BOTH sides confirm must still
// end in identical keys; interference may only reduce the number of
// confirmed rounds or abort the run.
func assertNoDivergingKeys(t *testing.T, alice, bob []protocol.KeyOutcome) (confirmed int) {
	t.Helper()
	n := len(alice)
	if len(bob) < n {
		n = len(bob)
	}
	for i := 0; i < n; i++ {
		if !alice[i].Confirmed || !bob[i].Confirmed {
			continue
		}
		confirmed++
		if string(alice[i].Key) != string(bob[i].Key) {
			t.Fatalf("round %d confirmed with diverging keys", i)
		}
	}
	return confirmed
}

func TestMITMTamperedMessages(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	sys, test := trainSystem(t)

	clean, cleanBob := runProtocolWith(t, sys, test, func(c transport.Conn) transport.Conn { return c })
	cleanConfirmed := assertNoDivergingKeys(t, clean, cleanBob)
	if cleanConfirmed == 0 {
		t.Fatal("clean run confirmed nothing; cannot test tampering")
	}

	// Corrupt Bob's messages at several positions; whatever the attacker
	// hits (index list, syndrome, result), no diverging key may confirm.
	for _, at := range []int{1, 2, 3, 4} {
		a, b := runProtocolWith(t, sys, test, func(c transport.Conn) transport.Conn {
			return &TamperConn{Conn: c, TamperAt: at, Flip: 8}
		})
		got := assertNoDivergingKeys(t, a, b)
		t.Logf("tamper at message %d: %d confirmed (clean %d)", at, got, cleanConfirmed)
	}
}

func TestReplayInjectionIgnored(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	sys, test := trainSystem(t)
	for _, after := range []int{1, 2} {
		a, b := runProtocolWith(t, sys, test, func(c transport.Conn) transport.Conn {
			return &ReplayConn{Conn: c, ReplayAfter: after}
		})
		got := assertNoDivergingKeys(t, a, b)
		t.Logf("replay after message %d: %d confirmed", after, got)
	}
}
