package protocol

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/transport"
)

// trainSystem builds a small trained system plus aligned test windows.
func trainSystem(t *testing.T) (*core.System, [][]float64, [][]float64) {
	t.Helper()
	sc := trace.NewScenario(channel.Urban, channel.V2I)
	ds, err := trace.Build(sc, 21, 300, 32, trace.DefaultExtract())
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(22)
	train, _, test := ds.Split(0.8, 0.05, src.Derive("split"))
	sys := core.New(core.DefaultConfig(), src.Derive("sys"))
	if _, err := sys.Train(train, 25, src.Derive("train")); err != nil {
		t.Fatal(err)
	}
	var alice, bob [][]float64
	for _, smp := range test.Samples {
		alice = append(alice, smp.Alice)
		bob = append(bob, smp.Bob)
	}
	return sys, alice, bob
}

func runProtocol(t *testing.T, sys *core.System, aliceWin, bobWin [][]float64, a, b transport.Conn) ([]KeyOutcome, []KeyOutcome) {
	t.Helper()
	alice := NewNode(sys, a, "sess-1")
	bob := NewNode(sys, b, "sess-1")
	var aliceOut, bobOut []KeyOutcome
	var aliceErr, bobErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		bobOut, bobErr = bob.RunBob(bobWin)
	}()
	go func() {
		defer wg.Done()
		aliceOut, aliceErr = alice.RunAlice(aliceWin)
	}()
	wg.Wait()
	if aliceErr != nil {
		t.Fatalf("alice: %v", aliceErr)
	}
	if bobErr != nil {
		t.Fatalf("bob: %v", bobErr)
	}
	return aliceOut, bobOut
}

// verifyOutcomes checks the confirmation invariants — both sides reach
// the same verdict per round, confirmed keys are identical and 128-bit —
// and returns the confirmed count. It does not demand any round confirm:
// schemes whose reconciliation is infeasible over the wire legitimately
// confirm nothing.
func verifyOutcomes(t *testing.T, aliceOut, bobOut []KeyOutcome) int {
	t.Helper()
	if len(aliceOut) != len(bobOut) {
		t.Fatalf("outcome count mismatch: %d vs %d", len(aliceOut), len(bobOut))
	}
	confirmed := 0
	for i := range aliceOut {
		if aliceOut[i].Confirmed != bobOut[i].Confirmed {
			t.Fatalf("round %d: confirmation mismatch", i)
		}
		if !aliceOut[i].Confirmed {
			continue
		}
		confirmed++
		if !bytes.Equal(aliceOut[i].Key, bobOut[i].Key) {
			t.Fatalf("round %d: confirmed keys differ", i)
		}
		if len(aliceOut[i].Key) != 16 {
			t.Fatalf("round %d: key length %d", i, len(aliceOut[i].Key))
		}
	}
	t.Logf("blocks=%d confirmed=%d", len(aliceOut), confirmed)
	return confirmed
}

func checkOutcomes(t *testing.T, aliceOut, bobOut []KeyOutcome) {
	t.Helper()
	if verifyOutcomes(t, aliceOut, bobOut) == 0 {
		t.Fatal("no confirmed keys")
	}
}

func TestProtocolInMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	sys, aliceWin, bobWin := trainSystem(t)
	a, b := transport.Pair()
	defer a.Close()
	defer b.Close()
	aliceOut, bobOut := runProtocol(t, sys, aliceWin, bobWin, a, b)
	checkOutcomes(t, aliceOut, bobOut)
}

func TestProtocolOverUDP(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	sys, aliceWin, bobWin := trainSystem(t)
	bobSide, err := transport.DialUDP("127.0.0.1:0", "127.0.0.1:9") // placeholder peer
	if err != nil {
		t.Fatal(err)
	}
	defer bobSide.Close()
	aliceSide, err := transport.DialUDP("127.0.0.1:0", bobSide.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer aliceSide.Close()
	ap, err := transport.ResolvePeer(aliceSide.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	bobSide.SetPeer(ap)
	aliceOut, bobOut := runProtocol(t, sys, aliceWin, bobWin, aliceSide, bobSide)
	checkOutcomes(t, aliceOut, bobOut)
}

func TestReplayRejected(t *testing.T) {
	sys := core.New(core.DefaultConfig(), rng.New(3))
	a, b := transport.Pair()
	defer a.Close()
	defer b.Close()
	alice := NewNode(sys, a, "s")
	// Craft a valid message, deliver it twice: an identical re-injection
	// (same sequence number) is a replay and must be rejected, while a
	// retransmission (fresh sequence number) must pass.
	env := Envelope{Type: MsgKept, Session: "s", Seq: 1, Indices: []int{1, 2}}
	data := encode(env)
	b.Send(data)
	b.Send(data)
	if _, err := alice.recvEnvelope(time.Second); err != nil {
		t.Fatalf("first delivery should pass: %v", err)
	}
	if _, err := alice.recvEnvelope(time.Second); err == nil {
		t.Fatal("replayed message must be rejected")
	}
	env.Seq = 2 // retransmission with a fresh nonce
	data = encode(env)
	b.Send(data)
	if _, err := alice.recvEnvelope(time.Second); err != nil {
		t.Fatalf("retransmission with fresh seq should pass: %v", err)
	}
}

func TestReorderedSeqAccepted(t *testing.T) {
	sys := core.New(core.DefaultConfig(), rng.New(5))
	a, b := transport.Pair()
	defer a.Close()
	defer b.Close()
	alice := NewNode(sys, a, "s")
	// Deliver seq 3 before seq 2: the sliding replay window admits the
	// late-but-fresh message instead of discarding it.
	for _, seq := range []uint64{3, 2} {
		data := encode(Envelope{Type: MsgKept, Session: "s", Seq: seq})
		b.Send(data)
	}
	for i := 0; i < 2; i++ {
		if _, err := alice.recvEnvelope(time.Second); err != nil {
			t.Fatalf("delivery %d: %v", i, err)
		}
	}
}

func TestSessionMismatchRejected(t *testing.T) {
	sys := core.New(core.DefaultConfig(), rng.New(4))
	a, b := transport.Pair()
	defer a.Close()
	defer b.Close()
	alice := NewNode(sys, a, "expected")
	env := Envelope{Type: MsgKept, Session: "other", Seq: 1}
	data := encode(env)
	b.Send(data)
	if _, err := alice.recvEnvelope(time.Second); err == nil {
		t.Fatal("session mismatch must be rejected")
	}
}

// holdResults loses every RESULT Bob sends before his DONE, so Alice
// still holds each of those rounds when the DONE arrives.
type holdResults struct {
	transport.Conn
	doneSent bool
}

func (c *holdResults) Send(data []byte) error {
	if e, err := decode(data); err == nil {
		switch {
		case e.Type == MsgDone:
			c.doneSent = true
		case e.Type == MsgResult && !c.doneSent:
			return nil
		}
	}
	return c.Conn.Send(data)
}

// TestAliceAcksDoneAfterLateResult: Alice withholds her DONE
// acknowledgement while rounds are pending and must send it once the
// re-requested RESULTs resolve them; otherwise Bob's finish loop keeps
// retransmitting DONE to a peer that has already returned. Bob's only
// retransmits must be the RESULT re-replies, one per round.
func TestAliceAcksDoneAfterLateResult(t *testing.T) {
	h := baselineHarness(t, "lora-key", 400, 8, 160)
	a, b := transport.Pair()
	defer a.Close()
	defer b.Close()
	bobReg := obs.NewRegistry()
	alice := NewNode(h.sys, a, "s", WithRetryPolicy(RetryPolicy{Timeout: 20 * time.Millisecond, MaxRetries: 8}))
	bob := NewNode(h.sys, &holdResults{Conn: b}, "s", WithRetryPolicy(RetryPolicy{Timeout: 2 * time.Second, MaxRetries: 2}),
		WithRecorder(bobReg))
	var aliceOut, bobOut []KeyOutcome
	var aliceErr, bobErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); bobOut, bobErr = bob.RunBob(h.bobWin) }()
	go func() { defer wg.Done(); aliceOut, aliceErr = alice.RunAlice(h.aliceWin) }()
	wg.Wait()
	if aliceErr != nil || bobErr != nil {
		t.Fatalf("alice: %v, bob: %v", aliceErr, bobErr)
	}
	if len(bobOut) == 0 {
		t.Fatal("no rounds to hold")
	}
	verifyOutcomes(t, aliceOut, bobOut)
	if got := counter(bobReg, obs.ProtocolRetransmits); got != int64(len(bobOut)) {
		t.Fatalf("bob retransmitted %d times for %d rounds: DONE went unacknowledged", got, len(bobOut))
	}
}
