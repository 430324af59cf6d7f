package vehiclekey

import (
	"bytes"
	"errors"
	"log"
	"strings"
	"testing"
)

// TestOptionsEquivalence is the API-compat contract: the functional-
// options path must produce a session indistinguishable from the plain
// struct path for the same effective configuration — identical keys from
// the same seed.
func TestOptionsEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two models")
	}
	plain, err := SetupWith(Options{Seed: 7, TrainingWindows: 160, TrainingEpochs: 12})
	if err != nil {
		t.Fatal(err)
	}
	fluent, err := SetupWith(Options{},
		WithSeed(7), WithTrainingWindows(160), WithTrainingEpochs(12))
	if err != nil {
		t.Fatal(err)
	}
	k1, m1, err := plain.GenerateKeys(2)
	if err != nil {
		t.Fatal(err)
	}
	k2, m2, err := fluent.GenerateKeys(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(k1) != len(k2) {
		t.Fatalf("key counts differ: %d vs %d", len(k1), len(k2))
	}
	for i := range k1 {
		if !bytes.Equal(k1[i].Bits, k2[i].Bits) || k1[i].Agreed != k2[i].Agreed {
			t.Errorf("key %d differs between struct and options paths", i)
		}
	}
	if m1 != m2 {
		t.Errorf("metrics differ: %+v vs %+v", m1, m2)
	}
}

// TestOptionSetters pins each Option to its Options field.
func TestOptionSetters(t *testing.T) {
	var o Options
	reg := NewMetricsRegistry()
	logger := log.New(&bytes.Buffer{}, "", 0)
	obsv := ObserverFuncs{}
	for _, opt := range []Option{
		WithEnvironment(Rural), WithLink(V2V), WithSpeed(80), WithSeed(9),
		WithTrainingWindows(100), WithTrainingEpochs(5),
		WithSystemConfig(SystemConfig{SeqLen: 16}),
		WithRecorder(reg), WithLogger(logger), WithObserver(obsv),
		WithMedium(MediumConfig{Channels: 4}),
	} {
		opt(&o)
	}
	if o.Medium == nil || o.Medium.Channels != 4 {
		t.Errorf("WithMedium not applied: %+v", o.Medium)
	}
	if o.Environment != Rural || o.Link != V2V || o.SpeedKmh != 80 || o.Seed != 9 {
		t.Errorf("scenario options not applied: %+v", o)
	}
	if o.TrainingWindows != 100 || o.TrainingEpochs != 5 || o.System.SeqLen != 16 {
		t.Errorf("training options not applied: %+v", o)
	}
	if o.Recorder != Recorder(reg) || o.Logger != logger || o.Observer == nil {
		t.Error("hook options not applied")
	}
}

// TestRecorderObserverLogger wires every hook through a real session and
// checks each fired: metrics counters advanced, the observer saw the
// lifecycle, the logger wrote progress lines.
func TestRecorderObserverLogger(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	reg := NewMetricsRegistry()
	var logBuf bytes.Buffer
	trained := 0
	var seen []Key
	session, err := SetupWith(quickOptions(5),
		WithRecorder(reg),
		WithLogger(log.New(&logBuf, "", 0)),
		WithObserver(ObserverFuncs{
			OnTrained: func(seed int64, epochs int) { trained++ },
			OnKey:     func(k Key) { seen = append(seen, k) },
		}))
	if err != nil {
		t.Fatal(err)
	}
	if trained != 1 {
		t.Errorf("SessionTrained fired %d times, want 1", trained)
	}
	keys, _, err := session.GenerateKeys(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(keys) {
		t.Errorf("observer saw %d keys, session returned %d", len(seen), len(keys))
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
	s, err := SetupWith(Options{Seed: 9, TrainingWindows: 40, TrainingEpochs: 1},
		WithScheme("lora-key"), // training-free: keeps the test cheap
		WithMedium(MediumConfig{Channels: 2, TimeScale: 1000}))
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

	if _, err := SetupWith(Options{}, WithMedium(MediumConfig{Channels: -1})); err == nil {
		t.Error("SetupWith accepted an invalid medium config")
	}

	pp, err := SetupWith(Options{TrainingWindows: 40, TrainingEpochs: 1}, WithScheme("lora-key"))
	if err != nil {
		t.Fatal(err)
	}
	if pp.Medium() != nil {
		t.Error("point-to-point session has a non-nil Medium()")
	}
}
