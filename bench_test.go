// Benchmarks that regenerate each table and figure of the paper's
// evaluation (via internal/exp) plus micro-benchmarks of the pipeline's
// hot components. Run them all with:
//
//	go test -bench=. -benchmem
//
// Each experiment benchmark reports the regenerated rows through -v logs
// of cmd/vkbench; here the interest is wall-clock cost of regeneration at
// the quick configuration.
package vehiclekey

import (
	"flag"
	"sync"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/lora"
	"repro/internal/nn"
	"repro/internal/protocol"
	"repro/internal/reconcile"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/transport"
)

// expParallel is the experiment engine's worker count for the benchmarks
// below: `go test -bench=. -args -j 8`. 0 uses every core; 1 benchmarks
// the serial baseline. Reports are identical either way — only the
// wall-clock changes.
var expParallel = flag.Int("j", 0, "exp.RunConfig.Parallelism for experiment benchmarks (0 = all cores)")

func expConfig() exp.RunConfig {
	cfg := exp.Quick()
	cfg.Parallelism = *expParallel
	return cfg
}

func runExp(b *testing.B, id string) {
	b.Helper()
	cfg := expConfig()
	for i := 0; i < b.N; i++ {
		rep, err := exp.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) == 0 {
			b.Fatalf("%s: empty report", id)
		}
	}
}

// One benchmark per paper figure/table (DESIGN.md experiment index).

func BenchmarkFig02aCorrelationVsDataRate(b *testing.B) { runExp(b, "fig2a") }
func BenchmarkFig02bCorrelationVsSpeed(b *testing.B)    { runExp(b, "fig2b") }
func BenchmarkFig03PRSSIvsRRSSI(b *testing.B)           { runExp(b, "fig3") }
func BenchmarkFig04RegisterRSSITrace(b *testing.B)      { runExp(b, "fig4") }
func BenchmarkFig09ArRSSIWindow(b *testing.B)           { runExp(b, "fig9") }
func BenchmarkFig10Prediction(b *testing.B)             { runExp(b, "fig10") }
func BenchmarkFig11Reconciliation(b *testing.B)         { runExp(b, "fig11") }
func BenchmarkTab1DevicesSpeeds(b *testing.B)           { runExp(b, "tab1") }
func BenchmarkFig12AgreementComparison(b *testing.B)    { runExp(b, "fig12") }
func BenchmarkFig13GenerationRate(b *testing.B)         { runExp(b, "fig13") }
func BenchmarkFig14Transfer(b *testing.B)               { runExp(b, "fig14") }
func BenchmarkFig15Security(b *testing.B)               { runExp(b, "fig15") }
func BenchmarkFig16EveTrace(b *testing.B)               { runExp(b, "fig16") }
func BenchmarkTab2NIST(b *testing.B)                    { runExp(b, "tab2") }
func BenchmarkTab3Power(b *testing.B)                   { runExp(b, "tab3") }
func BenchmarkFig17PowerTrace(b *testing.B)             { runExp(b, "fig17") }

// Design-choice ablations called out in DESIGN.md.

func BenchmarkAblationTheta(b *testing.B) { runExp(b, "ablate-theta") }
func BenchmarkAblationBloom(b *testing.B) { runExp(b, "ablate-bloom") }

// BenchmarkRunAllPrelim measures the cross-experiment concurrency of
// exp.RunAll over the training-free runners (the trained ones would
// mostly benchmark the cache). Compare `-args -j 1` with `-args -j 8`.
func BenchmarkRunAllPrelim(b *testing.B) {
	cfg := expConfig()
	ids := []string{"fig2a", "fig2b", "fig3", "fig4", "fig9", "fig16"}
	for i := 0; i < b.N; i++ {
		reps, err := exp.RunAll(ids, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(reps) != len(ids) {
			b.Fatalf("got %d reports, want %d", len(reps), len(ids))
		}
	}
}

// Micro-benchmarks of the pipeline's hot paths.

func BenchmarkPredictorForward(b *testing.B) {
	src := rng.New(1)
	// The paper's full-size model: 32 steps, 128 hidden units.
	p := nn.NewPredictor(nn.PredictorConfig{SeqLen: 32, Hidden: 128, Bits: 64, Theta: 0.9}, src)
	seq := make([]float64, 32)
	for i := range seq {
		seq[i] = src.Normal(0, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(seq)
	}
}

func BenchmarkPredictorTrainStep(b *testing.B) {
	src := rng.New(2)
	p := nn.NewPredictor(nn.PredictorConfig{SeqLen: 32, Hidden: 32, Bits: 64, Theta: 0.9}, src)
	seq := make([]float64, 32)
	bits := make([]byte, 64)
	for i := range seq {
		seq[i] = src.Normal(0, 1)
		bits[2*i] = byte(i % 2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.TrainStep(seq, seq, bits, nil)
	}
}

// BenchmarkTrainAE times one reconciler fit at the default system's
// AE settings (64-bit blocks, 10 epochs × 300 key pairs), the fit that
// System.Train runs beside the predictor's.
func BenchmarkTrainAE(b *testing.B) {
	cfg := core.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reconcile.TrainAE(cfg.AE, cfg.AEEpochs, cfg.AESamples, rng.New(3))
	}
}

// BenchmarkSetupWith times a whole default setup with cmd/vkperf's
// options: dataset, scheme construction and both fits.
func BenchmarkSetupWith(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SetupWith(Options{Seed: 21, TrainingWindows: 160, TrainingEpochs: 12}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAEReconcile(b *testing.B) {
	ae := reconcile.TrainAE(reconcile.AEConfig{KeyBits: 64, CodeDim: 32, DecoderUnits: 16}, 4, 100, rng.New(3))
	src := rng.New(4)
	kb := src.Bits(64)
	ka := make([]byte, 64)
	copy(ka, kb)
	ka[3] ^= 1
	ka[40] ^= 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ae.Reconcile(ka, kb, []byte("bench")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCSISTA(b *testing.B) {
	src := rng.New(5)
	kb := src.Bits(64)
	ka := make([]byte, 64)
	copy(ka, kb)
	ka[10] ^= 1
	ka[50] ^= 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reconcile.CSISTA(ka, kb, reconcile.DefaultCSConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCascade(b *testing.B) {
	src := rng.New(6)
	kb := src.Bits(128)
	ka := make([]byte, 128)
	copy(ka, kb)
	ka[7] ^= 1
	ka[99] ^= 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reconcile.Cascade(ka, kb, reconcile.DefaultCascadeConfig(), src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChannelGain times the batched channel query of one
// reception's register edge: 13 reads × 3 smoothing taps, 39 times,
// the window moving on by one reception per iteration over a 500 s
// drive.
func BenchmarkChannelGain(b *testing.B) {
	m := channel.NewModel(channel.DefaultConfig(channel.Urban, channel.V2V), rng.New(7))
	ts, out := make([]float64, 39), make([]float64, 39)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := float64(i%1000) * 0.5
		for j := range ts {
			ts[j] = start + lora.RegisterSampleInterval*float64(j/3) - lora.RSSISmoothing*float64(j%3)/3
		}
		m.GainsDB(ts, out)
	}
}

func BenchmarkProbeExchange(b *testing.B) {
	col := trace.NewCollector(trace.NewScenario(channel.Urban, channel.V2I), 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col.Run(1)
	}
}

// BenchmarkSessionWindows times one session's window derivation for a
// new vehicle each iteration (no cache): the 8 aligned windows of both
// sides (both), or of one side, as the server (alice) and a vehicle
// (bob) each derive them.
func BenchmarkSessionWindows(b *testing.B) {
	sc := trace.NewScenario(channel.Urban, channel.V2I)
	cfg := core.DefaultConfig()
	for _, side := range []struct {
		name string
		rx   trace.Receivers
	}{{"both", trace.Alice | trace.Bob}, {"alice", trace.Alice}, {"bob", trace.Bob}} {
		b.Run(side.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := server.SessionWindowsFor(sc, cfg, 1, uint64(i), 8, side.rx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTraceBuild times a 160-window dataset of 32 features: with
// every receiver (all: Alice, Bob and both Eves, as trace.Build) and
// with the Alice and Bob sides a training set needs (alice-bob, as
// vehiclekey.SetupWith).
func BenchmarkTraceBuild(b *testing.B) {
	sc := trace.NewScenario(channel.Urban, channel.V2I)
	for _, set := range []struct {
		name string
		rx   trace.Receivers
	}{{"all", trace.Alice | trace.Bob | trace.Eve}, {"alice-bob", trace.Alice | trace.Bob}} {
		b.Run(set.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := trace.BuildFor(sc, int64(i), 160, 32, trace.DefaultExtract(), set.rx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLoRaAirtime(b *testing.B) {
	p := lora.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Airtime()
	}
}

// Protocol round benchmarks: one full interactive key establishment
// (all windows, reconciliation, confirmation, DONE handshake) over the
// in-memory transport. The session is trained once and shared.

var (
	benchProtoOnce    sync.Once
	benchProtoSession *Session
	benchProtoErr     error
)

func benchSession(b *testing.B) *Session {
	b.Helper()
	benchProtoOnce.Do(func() {
		benchProtoSession, benchProtoErr = SetupWith(Options{
			Seed:            11,
			TrainingWindows: 160,
			TrainingEpochs:  10,
		})
	})
	if benchProtoErr != nil {
		b.Fatal(benchProtoErr)
	}
	return benchProtoSession
}

func runProtoBench(b *testing.B, cfg transport.FaultConfig) {
	s := benchSession(b)
	aliceWin, bobWin := s.Windows(8)
	policy := protocol.RetryPolicy{
		Timeout: 20 * time.Millisecond, MaxTimeout: 160 * time.Millisecond,
		Backoff: 2, MaxRetries: 8,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ca, cb := transport.FaultyPair(cfg, rng.New(int64(100+i)))
		alice := protocol.NewNode(s.System(), ca, "bench", protocol.WithRetryPolicy(policy))
		bob := protocol.NewNode(s.System(), cb, "bench", protocol.WithRetryPolicy(policy))
		var wg sync.WaitGroup
		wg.Add(1)
		var bobOut []protocol.KeyOutcome
		var bobErr error
		go func() {
			defer wg.Done()
			bobOut, bobErr = bob.RunBob(bobWin)
		}()
		aliceOut, aliceErr := alice.RunAlice(aliceWin)
		wg.Wait()
		ca.Close()
		cb.Close()
		if aliceErr != nil || bobErr != nil {
			b.Fatalf("alice=%v bob=%v", aliceErr, bobErr)
		}
		if len(aliceOut) == 0 || len(bobOut) == 0 {
			b.Fatal("protocol produced no outcomes")
		}
	}
}

func BenchmarkProtocolRound(b *testing.B) {
	runProtoBench(b, transport.FaultConfig{})
}

func BenchmarkProtocolRoundLossy(b *testing.B) {
	runProtoBench(b, transport.FaultConfig{Drop: 0.10, Reorder: 0.10})
}

// BenchmarkScheme runs every registered scheme — Vehicle-Key and the
// three baselines — through core.System.EvaluateStream over one shared
// collected trace, so per-scheme quantize+reconcile cost is directly
// comparable. CI's bench-smoke job tracks the BenchmarkScheme/* rows
// across PRs as the cross-scheme perf trajectory.
func BenchmarkScheme(b *testing.B) {
	col := trace.NewCollector(trace.NewScenario(channel.Urban, channel.V2I), 12)
	ex := col.Run(640)
	aliceS, bobS := trace.PRSSI(ex)
	var dur float64
	for _, e := range ex {
		dur += e.Duration
	}
	for _, name := range Schemes() {
		b.Run(name, func(b *testing.B) {
			sys, err := core.NewScheme(name, core.DefaultConfig(), rng.New(13))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := sys.EvaluateStream(aliceS, bobS, dur)
				if err != nil {
					b.Fatal(err)
				}
				if m.Blocks == 0 {
					b.Fatal("stream evaluation produced no blocks")
				}
			}
		})
	}
}

// BenchmarkPredict times the predictor inference stage on a briefly
// trained Vehicle-Key system. Two sub-benchmarks:
//
//	forward — the raw batched forward, memo bypassed.
//	predict — Alice's protocol path, AlicePrecompute then Select,
//	          cycling a fixed window set so the fingerprint memo
//	          serves warm calls.
func BenchmarkPredict(b *testing.B) {
	sc := trace.NewScenario(channel.Urban, channel.V2I)
	ds, err := trace.Build(sc, 13, 80, 32, trace.DefaultExtract())
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(13)
	sys := core.New(core.DefaultConfig(), src.Derive("sys"))
	train, _, test := ds.Split(0.75, 0.05, src.Derive("split"))
	if _, err := sys.Train(train, 2, src.Derive("train")); err != nil {
		b.Fatal(err)
	}
	var wins [][]float64
	for _, smp := range test.Samples {
		wins = append(wins, smp.Alice)
	}
	if len(wins) == 0 {
		b.Fatal("predict benchmark: empty test split")
	}
	b.Run("forward", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := sys.Stages.Predictor.Predict(wins[i%len(wins)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	kept := []int{0}
	b.Run("predict", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := sys.AlicePrecompute(wins[i%len(wins)])
			if err != nil {
				b.Fatal(err)
			}
			if _, _, ok := r.Select(kept); !ok {
				b.Fatal("Select rejected the announced indices")
			}
		}
	})
}

func BenchmarkKeyStreamPush(b *testing.B) {
	sc := trace.NewScenario(channel.Urban, channel.V2I)
	ds, err := trace.Build(sc, 9, 40, 32, trace.DefaultExtract())
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(10)
	sys := core.New(core.DefaultConfig(), src)
	ks := sys.NewKeyStream([]byte("bench"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ks.Push(ds.Samples[i%len(ds.Samples)]); err != nil {
			b.Fatal(err)
		}
	}
}
