// Package power reproduces the paper's Table III / Fig. 17 measurement:
// per-stage computation time and energy for one key generation. Times are
// measured on the current host; energy is modeled with the per-stage
// power draws implied by the paper's Raspberry Pi 4 measurements
// (energy = time × draw), so the *structure* — Alice pays for prediction,
// Bob only for quantization and encoding, reconciliation is negligible —
// carries over even though absolute host speeds differ.
package power

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/amplify"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/secure"
	"repro/internal/trace"
)

// Stage draws implied by Table III (mJ / ms → W).
const (
	predictionDrawW = 3.81 // 12.8947 mJ / 3.38 ms
	quantizeDrawW   = 3.43 // 1.44 mJ / 0.42 ms
	reconcileDrawW  = 3.61 // 0.1113 mJ / 0.0308 ms
)

// Measurement is one (side, stage) timing/energy row.
type Measurement struct {
	Side     string // "Alice" or "Bob"
	Stage    string
	Duration time.Duration
	EnergyMJ float64
}

// String implements fmt.Stringer.
func (m Measurement) String() string {
	return fmt.Sprintf("%-5s %-28s %10.4f ms %10.4f mJ",
		m.Side, m.Stage, float64(m.Duration.Nanoseconds())/1e6, m.EnergyMJ)
}

// Profile times every pipeline stage of one key-generation round on the
// trained system, repeating each stage iters times and reporting the mean.
func Profile(sys *core.System, smp trace.Sample, iters int) ([]Measurement, error) {
	if iters <= 0 {
		iters = 20
	}
	if len(smp.Alice) == 0 {
		return nil, errors.New("power: empty Alice window")
	}
	salt := []byte("power-profile")

	timeIt := func(f func()) time.Duration {
		start := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		return time.Since(start) / time.Duration(iters)
	}

	// Bob: quantization.
	bobBits, bobKept, err := sys.BobQuantize(smp.Bob)
	if err != nil {
		return nil, err
	}
	tBobQuant := timeIt(func() {
		_, _, _ = sys.BobQuantize(smp.Bob)
	})

	// Alice: prediction + quantization network and selection. Each timed
	// call gets its own window (her first value moved by a few ulps), so
	// every call misses the predictor memo and runs the forward, as in a
	// fresh session; repeating one window would time memo hits.
	windows := make([][]float64, iters)
	for i := range windows {
		w := slices.Clone(smp.Alice)
		w[0] = math.Float64frombits(math.Float64bits(w[0]) + uint64(i) + 1)
		windows[i] = w
	}
	next := 0
	tAlicePred := timeIt(func() {
		_, _ = sys.AliceSelect(windows[next], bobKept)
		next++
	})
	aliceBits, finalKept := sys.AliceSelect(smp.Alice, bobKept)
	bobFinal := pipeline.SelectAt(bobBits, bobKept, finalKept, sys.Cfg.BitsPerSample)

	// Pad both to the reconciliation block (profiling a single round).
	block := sys.BlockBits()
	padTo := func(bits []byte) []byte {
		out := make([]byte, block)
		copy(out, bits)
		return out
	}
	a64, b64 := padTo(aliceBits), padTo(bobFinal)

	// Reconciliation: each side pays only its own wire half, Bob the
	// encode and Alice the correction against his actual code vector.
	code, bobImage, err := sys.BobEncode(b64, salt)
	if err != nil {
		return nil, err
	}
	secure.Wipe(bobImage)
	_, aliceImage, err := sys.AliceCorrect(a64, code, salt)
	if err != nil {
		return nil, err
	}
	secure.Wipe(aliceImage)
	tBobRec := timeIt(func() {
		_, img, _ := sys.BobEncode(b64, salt)
		secure.Wipe(img)
	})
	tAliceRec := timeIt(func() {
		_, img, _ := sys.AliceCorrect(a64, code, salt)
		secure.Wipe(img)
	})

	// Privacy amplification (both sides, microseconds).
	tPA := timeIt(func() {
		_, _ = amplify.Amplify(b64, salt)
	})

	mj := func(d time.Duration, draw float64) float64 {
		return d.Seconds() * 1e3 * draw
	}
	return []Measurement{
		{Side: "Alice", Stage: "Prediction and quantization", Duration: tAlicePred, EnergyMJ: mj(tAlicePred, predictionDrawW)},
		{Side: "Bob", Stage: "Prediction and quantization", Duration: tBobQuant, EnergyMJ: mj(tBobQuant, quantizeDrawW)},
		{Side: "Alice", Stage: "Reconciliation", Duration: tAliceRec, EnergyMJ: mj(tAliceRec, reconcileDrawW)},
		{Side: "Bob", Stage: "Reconciliation", Duration: tBobRec, EnergyMJ: mj(tBobRec, reconcileDrawW)},
		{Side: "Alice", Stage: "Privacy amplification", Duration: tPA, EnergyMJ: mj(tPA, reconcileDrawW)},
		{Side: "Bob", Stage: "Privacy amplification", Duration: tPA, EnergyMJ: mj(tPA, reconcileDrawW)},
	}, nil
}

// ModelProfile produces the same six (side, stage) rows as Profile, but
// with durations computed from a deterministic operation-count model of
// the configured architecture scaled to the paper's Raspberry Pi 4
// throughput, instead of measured on the host. The result is a pure
// function of the system's Config — bit-identical run to run — which is
// what the experiment engine's quick/regression mode needs: measured
// wall-clock times can never reproduce exactly, modeled ones always do.
//
// Calibration: the paper's 128-unit BiLSTM predictor takes 3.38 ms on
// the Pi 4, and its per-timestep cost is dominated by the recurrent
// multiply-accumulates, giving roughly 0.25 ns per MAC; the remaining
// stages reuse that constant over their own op counts.
func ModelProfile(sys *core.System) []Measurement {
	cfg := sys.Cfg
	const nsPerOp = 0.25

	dur := func(ops float64) time.Duration {
		return time.Duration(ops * nsPerOp)
	}

	// BiLSTM: two directions × SeqLen steps × 4 gates × H×(H+1) MACs,
	// plus the per-timestep prediction and quantization heads.
	h := float64(cfg.Hidden)
	seq := float64(cfg.SeqLen)
	bits := float64(cfg.BitsPerSample * cfg.SeqLen)
	predOps := 2*seq*4*h*(h+1) + seq*2*h + bits*2*h
	// Bob's quantizer: a threshold scan per sample.
	quantOps := seq * float64(int(1)<<cfg.BitsPerSample) * 4
	// Autoencoder: encoder KeyBits×CodeDim; decoder adds the per-position
	// shared units.
	enc := float64(cfg.AE.KeyBits * cfg.AE.CodeDim)
	dec := enc + float64(cfg.AE.KeyBits*(cfg.AE.DecoderUnits*cfg.AE.DecoderUnits+3*cfg.AE.DecoderUnits))
	// Privacy amplification: one hash pass over the block.
	paOps := float64(cfg.KeyBlockBits) * 24

	tAlicePred := dur(predOps)
	tBobQuant := dur(quantOps)
	tAliceRec := dur(enc + dec)
	tBobRec := dur(enc)
	tPA := dur(paOps)

	mj := func(d time.Duration, draw float64) float64 {
		return d.Seconds() * 1e3 * draw
	}
	return []Measurement{
		{Side: "Alice", Stage: "Prediction and quantization", Duration: tAlicePred, EnergyMJ: mj(tAlicePred, predictionDrawW)},
		{Side: "Bob", Stage: "Prediction and quantization", Duration: tBobQuant, EnergyMJ: mj(tBobQuant, quantizeDrawW)},
		{Side: "Alice", Stage: "Reconciliation", Duration: tAliceRec, EnergyMJ: mj(tAliceRec, reconcileDrawW)},
		{Side: "Bob", Stage: "Reconciliation", Duration: tBobRec, EnergyMJ: mj(tBobRec, reconcileDrawW)},
		{Side: "Alice", Stage: "Privacy amplification", Duration: tPA, EnergyMJ: mj(tPA, reconcileDrawW)},
		{Side: "Bob", Stage: "Privacy amplification", Duration: tPA, EnergyMJ: mj(tPA, reconcileDrawW)},
	}
}

// Totals sums the measurements per side.
func Totals(ms []Measurement) map[string]Measurement {
	out := make(map[string]Measurement)
	for _, m := range ms {
		t := out[m.Side]
		t.Side = m.Side
		t.Stage = "Total"
		t.Duration += m.Duration
		t.EnergyMJ += m.EnergyMJ
		out[m.Side] = t
	}
	return out
}

// Trace produces a Fig. 17-style power-draw series: (time offset, watts)
// points over one key generation, derived from the stage timings.
type TracePoint struct {
	AtMS  float64
	DrawW float64
	Stage string
}

// DrawTrace lays the Alice-side stages end to end.
func DrawTrace(ms []Measurement) []TracePoint {
	var out []TracePoint
	var at float64
	const idleDraw = 2.7 // Pi 4 idle draw, paper's Fig. 17 baseline
	out = append(out, TracePoint{AtMS: 0, DrawW: idleDraw, Stage: "idle"})
	for _, m := range ms {
		if m.Side != "Alice" {
			continue
		}
		durMS := float64(m.Duration.Nanoseconds()) / 1e6
		draw := idleDraw
		if durMS > 0 {
			draw = m.EnergyMJ / durMS
		}
		out = append(out, TracePoint{AtMS: at, DrawW: draw, Stage: m.Stage})
		at += durMS
	}
	out = append(out, TracePoint{AtMS: at, DrawW: idleDraw, Stage: "idle"})
	return out
}
