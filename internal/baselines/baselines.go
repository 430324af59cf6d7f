// Package baselines implements the three LoRa key-generation schemes the
// paper compares against in Figs. 12 and 13:
//
//   - LoRa-Key (Xu et al., IoT-J 2018): packet-RSSI quantization with an
//     α = 0.8 guard band on both sides, kept-index intersection, and
//     compressed-sensing reconciliation over a 20×64 random matrix;
//   - Han et al. (Sensors 2020): Jana-style multi-bit quantization with
//     Gray coding and Cascade reconciliation (group length 3, 4
//     iterations);
//   - Gao et al. (IPSN 2021): model-based filtering — RSSI smoothed over
//     an interval (20) with a bounded number of rounds (50) — followed by
//     single-bit quantization and CS reconciliation.
//
// All three consume the per-packet pRSSI series, the measurement every
// pre-Vehicle-Key scheme uses; their low key rates relative to
// Vehicle-Key's register-RSSI stream are the paper's Fig. 13.
//
// Each scheme is expressed as a pipeline.Stages slot assignment and
// registered with core's scheme registry (importing this package,
// possibly blank, makes "lora-key", "han" and "gao" constructible via
// core.NewScheme), so the protocol, experiment and NIST layers drive
// them through exactly the code path Vehicle-Key runs.
package baselines

import (
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/quantize"
	"repro/internal/rng"
)

// blockSize is the reconciliation unit all baselines use, matching the
// paper's 20×64 CS matrix.
const blockSize = 64

// loRaKeyQuant is LoRa-Key's quantizer: 1 bit per packet RSSI with the
// paper's α = 0.8 guard band, per-32-sample adaptive blocks.
func loRaKeyQuant() quantize.MultiBitConfig {
	return quantize.MultiBitConfig{
		BitsPerSample: 1,
		GuardRatio:    0.8, // the paper tunes LoRa-Key's α to 0.8
		BlockSize:     32,
	}
}

// hanQuant is Han et al.'s quantizer: the multi-bit quantizer pushed to
// 3 bits per packet RSSI to compensate for LoRa's low probing rate; at
// vehicular pRSSI correlations that depth costs substantial
// disagreement, which Cascade's four passes only partly repair — the
// paper's Fig. 12.
func hanQuant() quantize.MultiBitConfig {
	return quantize.MultiBitConfig{
		BitsPerSample: 3,
		GuardRatio:    0,
		BlockSize:     32,
	}
}

// Gao et al.'s model-based filtering: interval smoothing with a bounded
// number of rounds per batch (the paper sets interval 20, rounds 50
// over raw RSSI samples; scaled here to the per-packet series: one bit
// per two-packet interval).
const gaoInterval, gaoRounds = 3, 50

// noGuard strips the guard band from a multi-bit config, producing the
// full (every-sample) bit head an identity predictor announces.
func noGuard(qc quantize.MultiBitConfig) quantize.MultiBitConfig {
	qc.GuardRatio = 0
	return qc
}

// multiBitHead builds an identity-predictor head function: the full
// un-guarded bit string of the scheme's quantizer over a sequence.
func multiBitHead(qc quantize.MultiBitConfig) func([]float64) ([]byte, error) {
	return func(seq []float64) ([]byte, error) {
		res, err := quantize.MultiBit(seq, qc)
		if err != nil {
			return nil, err
		}
		return res.Bits, nil
	}
}

// loRaKeyStages assembles LoRa-Key's slot assignment.
//
// LoRa-Key's published protocol has no kept-index exchange: each side
// censors its own guard-band samples silently (the scheme was designed
// for static links, where both sides drop nearly identical indices). In
// a vehicular channel the two kept-index sets diverge, the order-aligned
// bit streams lose synchronization, and agreement collapses toward
// chance — this is precisely why the paper measures LoRa-Key lowest in
// Fig. 12. core.System.EvaluateStream preserves that misalignment; the
// unified protocol path necessarily adds the index exchange (it cannot
// run unaligned), which is marked by IndexExchange.
func loRaKeyStages() pipeline.Stages {
	qc := loRaKeyQuant()
	return pipeline.Stages{
		Scheme:        "lora-key",
		Predictor:     pipeline.NewIdentityPredictor(multiBitHead(noGuard(qc))),
		Quantizer:     pipeline.NewMultiBit(qc, qc),
		Reconciler:    pipeline.NewCS(pipeline.DefaultCSConfig(), blockSize),
		Amplifier:     pipeline.NewSHAAmplifier(),
		IndexExchange: true,
	}
}

// hanStages assembles Han et al.'s slot assignment. src feeds the
// interactive Cascade permutations of the local-evaluation path (one
// Derive("cascade") per reconciled block, matching the paper's
// comparison); the wire path derives permutations from the session salt
// instead and never touches it.
func hanStages(src *rng.Source) pipeline.Stages {
	qc := hanQuant()
	return pipeline.Stages{
		Scheme:        "han",
		Predictor:     pipeline.NewIdentityPredictor(multiBitHead(qc)),
		Quantizer:     pipeline.NewMultiBit(qc, qc),
		Reconciler:    pipeline.NewCascade(pipeline.DefaultCascadeConfig(), blockSize, src),
		Amplifier:     pipeline.NewSHAAmplifier(),
		IndexExchange: false,
	}
}

// gaoStages assembles Gao et al.'s slot assignment.
func gaoStages() pipeline.Stages {
	return pipeline.Stages{
		Scheme:        "gao",
		Predictor:     pipeline.NewIdentityPredictor(gaoHead),
		Quantizer:     pipeline.NewInterval(gaoInterval, gaoRounds),
		Reconciler:    pipeline.NewCS(pipeline.DefaultCSConfig(), blockSize),
		Amplifier:     pipeline.NewSHAAmplifier(),
		IndexExchange: false,
	}
}

func gaoHead(seq []float64) ([]byte, error) {
	return quantize.Interval(seq, gaoInterval, gaoRounds), nil
}

func init() {
	core.RegisterScheme("lora-key", func(_ core.Config, _ *rng.Source) (pipeline.Stages, error) {
		return loRaKeyStages(), nil
	})
	core.RegisterScheme("han", func(_ core.Config, src *rng.Source) (pipeline.Stages, error) {
		return hanStages(src), nil
	})
	core.RegisterScheme("gao", func(_ core.Config, _ *rng.Source) (pipeline.Stages, error) {
		return gaoStages(), nil
	})
}
