package core

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/rng"
)

// TestKeyStreamPhaseSites: a KeyStream block records the reconcile phase
// once (the simulated two-sided reconciliation) and the amplify phase
// once per side, through the same System sites the protocol path uses.
func TestKeyStreamPhaseSites(t *testing.T) {
	sys := New(DefaultConfig(), rng.New(3))
	reg := obs.NewRegistry()
	obs.DeclareStandard(reg)
	sys.SetRecorder(reg)
	src := rng.New(4)
	alice := src.Bits(sys.BlockBits())
	bob := append([]byte(nil), alice...)
	bob[0] ^= 1
	if _, err := sys.NewKeyStream([]byte("phases")).emit(alice, bob); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for phase, want := range map[string]int64{obs.PhaseReconcile: 1, obs.PhaseAmplify: 2} {
		if got := snap.Histograms[obs.Labeled(obs.PipelinePhaseSeconds, "phase", phase)].Count; got != want {
			t.Errorf("%s phase observed %d times, want %d", phase, got, want)
		}
	}
}
