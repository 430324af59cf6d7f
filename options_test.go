package vehiclekey

import (
	"bytes"
	"errors"
	"log"
	"strings"
	"testing"
)

// TestRecorderLogger wires both hooks through a real session and checks
// each fired: metrics counters advanced and the logger wrote progress
// lines.
func TestRecorderLogger(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	reg := NewMetricsRegistry()
	var logBuf bytes.Buffer
	opts := quickOptions(5)
	opts.Recorder = reg
	opts.Logger = log.New(&logBuf, "", 0)
	session, err := SetupWith(opts)
	if err != nil {
		t.Fatal(err)
	}
	keys, _, err := session.GenerateKeys(2)
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if got := s.Counters["vk_session_keys_total"]; got != int64(len(keys)) {
		t.Errorf("vk_session_keys_total = %d, want %d", got, len(keys))
	}
	// The pipeline ran through the instrumented System, so phase
	// histograms must hold samples.
	if s.Histograms[`vk_pipeline_phase_seconds{phase="quantize"}`].Count == 0 {
		t.Error("no quantize-phase samples recorded")
	}
	if !strings.Contains(logBuf.String(), "trained") || !strings.Contains(logBuf.String(), "key(s)") {
		t.Errorf("logger missed progress lines:\n%s", logBuf.String())
	}
}

// TestErrorReexports proves the public sentinels and RoundError work with
// errors.Is / errors.As through the re-exported names.
func TestErrorReexports(t *testing.T) {
	err := error(&RoundError{Round: 3, Phase: "confirm", Err: ErrPeerTimeout})
	if !errors.Is(err, ErrPeerTimeout) {
		t.Error("errors.Is(RoundError, ErrPeerTimeout) = false")
	}
	if errors.Is(err, ErrConfirmFailed) {
		t.Error("RoundError wrongly matches ErrConfirmFailed")
	}
	var re *RoundError
	if !errors.As(err, &re) || re.Round != 3 || re.Phase != "confirm" {
		t.Errorf("errors.As lost fields: %+v", re)
	}
	if !strings.Contains(err.Error(), "round 3") {
		t.Errorf("message lacks round: %q", err.Error())
	}
}

// TestWithMediumSession checks the shared-medium public surface: the
// session owns a medium built from the (normalized) config, the medium
// seed inherits the session seed, protocol traffic flows over a link,
// and an invalid config fails SetupWith before any training.
func TestWithMediumSession(t *testing.T) {
	// Default (emulation) clock mode: lockstep would require every
	// endpoint driven continuously, which a plain Send-then-wait test
	// goroutine is not.
	s, err := SetupWith(Options{Seed: 9, TrainingWindows: 40, TrainingEpochs: 1,
		Scheme: "lora-key", // training-free: keeps the test cheap
		Medium: &MediumConfig{Channels: 2, TimeScale: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	m := s.Medium()
	if m == nil {
		t.Fatal("Session.Medium() = nil with Options.Medium set")
	}
	if got := m.Config(); got.Seed != 9 || got.Channels != 2 || got.CaptureDB != 6 {
		t.Errorf("medium config not normalized/inherited: %+v", got)
	}
	a, b, err := m.Link("veh-0")
	if err != nil {
		t.Fatal(err)
	}
	// Send first, then receive: the delivered frame waits in the
	// receiver's queue. A receiver parked first would time out after
	// DefaultRecvTimeout (30 virtual seconds, 30 ms of wall time at this
	// TimeScale) whenever the sending goroutine is starved that long, as
	// it is under -race on a loaded machine, and then close the link
	// before the probe is sent.
	if err := a.Send([]byte("probe")); err != nil {
		t.Fatalf("send over session medium: %v", err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatalf("recv over session medium: %v", err)
	}
	_ = b.Close()
	if string(got) != "probe" {
		t.Errorf("recv = %q, want %q", got, "probe")
	}
	if st := m.Stats(); st.Delivered != 1 {
		t.Errorf("stats.Delivered = %d, want 1", st.Delivered)
	}
	_ = m.Close()

	if _, err := SetupWith(Options{Medium: &MediumConfig{Channels: -1}}); err == nil {
		t.Error("SetupWith accepted an invalid medium config")
	}

	pp, err := SetupWith(Options{TrainingWindows: 40, TrainingEpochs: 1, Scheme: "lora-key"})
	if err != nil {
		t.Fatal(err)
	}
	if pp.Medium() != nil {
		t.Error("point-to-point session has a non-nil Medium()")
	}
}
