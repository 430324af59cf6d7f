package protocol

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/transport"
)

// TestRoundErrorSemantics pins the typed-error contract callers branch
// on: errors.Is reaches the sentinel through RoundError, errors.As
// recovers the round and phase.
func TestRoundErrorSemantics(t *testing.T) {
	err := error(roundErr(4, "result", ErrConfirmFailed))
	if !errors.Is(err, ErrConfirmFailed) {
		t.Error("errors.Is(err, ErrConfirmFailed) = false")
	}
	if errors.Is(err, ErrPeerTimeout) {
		t.Error("err wrongly matches ErrPeerTimeout")
	}
	var re *RoundError
	if !errors.As(err, &re) {
		t.Fatal("errors.As failed")
	}
	if re.Round != 4 || re.Phase != "result" {
		t.Errorf("RoundError fields = %+v", re)
	}
}

// TestOutcomeErrAndRecorder runs the full protocol once over a clean
// in-memory link with both nodes recording into one registry, and checks
// the two additions of this layer together: every outcome's Err
// classifies correctly, and the recorder counts the confirmed keys and
// samples the round and pipeline latencies.
func TestOutcomeErrAndRecorder(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	sys, aliceWin, bobWin := trainSystem(t)
	a, b := transport.Pair()
	defer a.Close()
	defer b.Close()

	reg := obs.NewRegistry()
	obs.DeclareStandard(reg)
	sys.SetRecorder(reg)
	alice := NewNode(sys, a, "sess-obs", WithRecorder(reg))
	bob := NewNode(sys, b, "sess-obs", WithRecorder(reg))
	var aliceOut, bobOut []KeyOutcome
	var aliceErr, bobErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); bobOut, bobErr = bob.RunBob(bobWin) }()
	go func() { defer wg.Done(); aliceOut, aliceErr = alice.RunAlice(aliceWin) }()
	wg.Wait()
	if aliceErr != nil || bobErr != nil {
		t.Fatalf("run: alice=%v bob=%v", aliceErr, bobErr)
	}
	checkOutcomes(t, aliceOut, bobOut)

	confirmed := 0
	for _, out := range [][]KeyOutcome{aliceOut, bobOut} {
		for _, o := range out {
			if o.Confirmed {
				confirmed++
				if o.Err != nil {
					t.Errorf("round %d confirmed but Err = %v", o.Round, o.Err)
				}
				continue
			}
			var re *RoundError
			if !errors.As(o.Err, &re) {
				t.Errorf("round %d failed without a RoundError: %v", o.Round, o.Err)
				continue
			}
			if !errors.Is(o.Err, ErrPeerTimeout) && !errors.Is(o.Err, ErrConfirmFailed) {
				t.Errorf("round %d Err wraps neither sentinel: %v", o.Round, o.Err)
			}
			if re.Round != o.Round {
				t.Errorf("RoundError.Round = %d, want %d", re.Round, o.Round)
			}
		}
	}

	s := reg.Snapshot()
	if got := s.Counters[obs.ProtocolKeysConfirmed]; got != int64(confirmed) {
		t.Errorf("vk_protocol_keys_confirmed_total = %d, want %d", got, confirmed)
	}
	if s.Histograms[obs.ProtocolRoundSeconds].Count == 0 {
		t.Error("no round-latency samples recorded")
	}
	// Both endpoints share one trained System, so the pipeline phases the
	// protocol exercises (quantize on Bob, predict on Alice) recorded too.
	if s.Histograms[`vk_pipeline_phase_seconds{phase="quantize"}`].Count == 0 {
		t.Error("no quantize-phase samples recorded")
	}
}

// TestAliceCountsUnawaitedType: a well-formed message of a type Alice
// never awaits (FINAL only travels from Alice to Bob) is stale traffic,
// and vk_protocol_stale_total counts it like every other stale delivery.
func TestAliceCountsUnawaitedType(t *testing.T) {
	sys, err := core.NewScheme("lora-key", core.DefaultConfig(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	a, b := transport.Pair()
	defer a.Close()
	defer b.Close()
	reg := obs.NewRegistry()
	alice := NewNode(sys, a, "stale", WithRecorder(reg), WithRetryPolicy(RetryPolicy{Timeout: 5 * time.Second, MaxRetries: 1}))
	done := make(chan error, 1)
	go func() {
		_, err := alice.RunAlice(nil)
		done <- err
	}()
	// Bob's side: an unawaited FINAL, then DONE over zero rounds, which
	// Alice acknowledges before she returns.
	for i, e := range []Envelope{{Type: MsgFinal}, {Type: MsgDone}} {
		e.Session, e.Seq = "stale", uint64(i+1)
		if err := b.Send(encode(e)); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("alice: %v", err)
	}
	if got := counter(reg, obs.ProtocolStale); got != 1 {
		t.Fatalf("vk_protocol_stale_total = %d, want 1", got)
	}
}
