package protocol

import (
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/transport"
)

// TestPhaseMetricsOverMem: a protocol run over a mem:// endpoint records
// the reconcile phase (Bob's encode, Alice's correction) and the amplify
// phase (each side's confirmed key) into the registry.
func TestPhaseMetricsOverMem(t *testing.T) {
	h := baselineHarness(t, "lora-key", 400, 3, 160)
	l, err := transport.Listen("mem://protocol-phases")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	a, err := transport.Dial("mem://protocol-phases")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	reg := obs.NewRegistry()
	obs.DeclareStandard(reg)
	h.sys.SetRecorder(reg)
	alice := NewNode(h.sys, a, "sess-phases", WithRecorder(reg))
	bob := NewNode(h.sys, b, "sess-phases", WithRecorder(reg))
	var aliceOut, bobOut []KeyOutcome
	var aliceErr, bobErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); bobOut, bobErr = bob.RunBob(h.bobWin) }()
	go func() { defer wg.Done(); aliceOut, aliceErr = alice.RunAlice(h.aliceWin) }()
	wg.Wait()
	if aliceErr != nil || bobErr != nil {
		t.Fatalf("run: alice=%v bob=%v", aliceErr, bobErr)
	}
	if verifyOutcomes(t, aliceOut, bobOut) == 0 {
		t.Fatal("no confirmed keys, so nothing was amplified")
	}
	snap := reg.Snapshot()
	for _, phase := range []string{obs.PhaseReconcile, obs.PhaseAmplify} {
		if snap.Histograms[obs.Labeled(obs.PipelinePhaseSeconds, "phase", phase)].Count == 0 {
			t.Errorf("no %s-phase samples recorded on the protocol path", phase)
		}
	}
}
