// Package quantize converts channel measurements into key bits. It
// provides the three quantizers the paper and its baselines use:
//
//   - MultiBit: the adaptive multi-bit quantizer of Jana et al.
//     (MobiCom'09) with Gray coding and an optional guard band — used by
//     Bob in Vehicle-Key (to produce the network's training targets) and
//     by the LoRa-Key and Han et al. baselines;
//   - MeanThreshold: the classic single-threshold 1-bit quantizer;
//   - Interval: the interval/round quantizer used to model the Gao et al.
//     baseline's low-rate bit extraction.
package quantize

import (
	"errors"
	"math"

	"repro/internal/mathx"
)

const sqrt2 = math.Sqrt2

func erfc(x float64) float64 { return math.Erfc(x) }

// MultiBitConfig parameterizes the adaptive multi-bit quantizer.
type MultiBitConfig struct {
	// BitsPerSample is b: each kept sample yields b Gray-coded bits
	// (2^b quantization levels). The paper's pipeline uses b = 2.
	BitsPerSample int
	// GuardRatio is α, the ratio of guard band to data: samples within
	// α/2 of a level boundary (in value space, relative to the local
	// level width) are dropped. α = 0 keeps every sample, which is what
	// the Vehicle-Key training targets use; LoRa-Key tunes α = 0.8.
	GuardRatio float64
	// BlockSize is the number of samples per adaptive block; quantile
	// boundaries are recomputed per block so slow trends (path loss) do
	// not leak into the bits. 0 means one block over the whole input.
	BlockSize int
	// Thresholds, when non-nil, fixes the level boundaries globally
	// (len = 2^BitsPerSample − 1, ascending) instead of estimating
	// per-block quantiles. Vehicle-Key quantizes z-normalized features
	// against the standard-normal quantile boundaries: empirical per-block
	// quantiles jitter with the measuring side's own noise, which injects
	// label noise into every bit of the other side's targets.
	Thresholds []float64
	// NaturalCoding emits plain binary level codes instead of Gray codes.
	// Guard banding keeps extreme levels more often than inner ones
	// (their outer tails have no boundary to guard); under that kept
	// distribution (p, q, q, p) the Gray LSB is biased toward 0, while
	// both natural-binary bits stay balanced. Vehicle-Key uses natural
	// coding for unbiased key material; the baselines keep the Gray
	// coding their papers specify.
	NaturalCoding bool
}

// DefaultMultiBit returns the configuration Vehicle-Key uses for Bob's
// quantizer: 2 bits per sample, no guard band, 32-sample blocks.
func DefaultMultiBit() MultiBitConfig {
	return MultiBitConfig{BitsPerSample: 2, GuardRatio: 0, BlockSize: 32}
}

// Result is the quantizer output: the bit string and the indices of the
// samples that produced it (needed by guard-banded schemes, where the two
// parties exchange kept-index lists and intersect them).
type Result struct {
	Bits []byte
	Kept []int
}

// MultiBit quantizes xs with cfg. The result is sized once for every
// sample kept, so its key bits are written in place and never copied.
func MultiBit(xs []float64, cfg MultiBitConfig) (Result, error) {
	if cfg.BitsPerSample < 1 || cfg.BitsPerSample > 8 {
		return Result{}, errors.New("quantize: BitsPerSample must be 1..8")
	}
	if cfg.GuardRatio < 0 || cfg.GuardRatio >= 1 {
		return Result{}, errors.New("quantize: GuardRatio must be in [0,1)")
	}
	block := cfg.BlockSize
	if block <= 0 || block > len(xs) {
		block = len(xs)
	}
	if block == 0 {
		return Result{}, mathx.ErrEmptyInput
	}
	levels := 1 << cfg.BitsPerSample
	res := Result{
		Bits: make([]byte, 0, len(xs)*cfg.BitsPerSample),
		Kept: make([]int, 0, len(xs)),
	}
	for lo := 0; lo < len(xs); lo += block {
		hi := lo + block
		if hi > len(xs) {
			hi = len(xs)
		}
		quantizeBlock(xs[lo:hi], lo, levels, cfg, &res)
	}
	return res, nil
}

// GaussianThresholds returns the standard-normal quantile boundaries for
// 2^bits levels (e.g. bits=2 → [−0.6745, 0, 0.6745]), the fixed
// thresholds Vehicle-Key applies to z-normalized arRSSI.
func GaussianThresholds(bits int) []float64 {
	levels := 1 << bits
	out := make([]float64, levels-1)
	for i := 1; i < levels; i++ {
		out[i-1] = normalQuantile(float64(i) / float64(levels))
	}
	return out
}

// normalQuantile inverts the standard normal CDF by bisection (plenty for
// threshold setup, which runs once).
func normalQuantile(p float64) float64 {
	lo, hi := -8.0, 8.0
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if 0.5*erfc(-mid/sqrt2) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

func quantizeBlock(xs []float64, offset, levels int, cfg MultiBitConfig, res *Result) {
	bounds := cfg.Thresholds
	if bounds == nil {
		bounds = mathx.Quantiles(xs, levels)
	}
	if bounds == nil {
		// Degenerate block (too small): mean threshold fallback.
		m := mathx.Mean(xs)
		for i, x := range xs {
			b := byte(0)
			if x > m {
				b = 1
			}
			for k := 0; k < cfg.BitsPerSample; k++ {
				res.Bits = append(res.Bits, b)
			}
			res.Kept = append(res.Kept, offset+i)
		}
		return
	}
	var lo, hi float64
	if cfg.Thresholds == nil {
		lo, hi = mathx.MinMax(xs)
	} else {
		// Fixed thresholds: pad the edge levels with the inner width so
		// guard margins are defined everywhere. The edge levels'
		// untouched outer tails keep more mass than the guard-trimmed
		// inner levels, which biases kept samples toward extreme levels;
		// natural coding keeps the per-bit marginals balanced under that
		// skew, and the residual within-sample structure is absorbed by
		// privacy amplification (see amplify.ExtractableBits). Capping
		// the tails to equalize levels was evaluated and rejected: it
		// parks the kept samples next to decision boundaries and
		// collapses agreement.
		if len(bounds) > 1 {
			w := bounds[1] - bounds[0]
			lo, hi = bounds[0]-w, bounds[len(bounds)-1]+w
		} else {
			lo, hi = bounds[0]-1, bounds[0]+1
		}
	}
	for i, x := range xs {
		level := 0
		for level < len(bounds) && x > bounds[level] {
			level++
		}
		if cfg.GuardRatio > 0 && inGuardBand(x, level, bounds, lo, hi, cfg.GuardRatio) {
			continue
		}
		code := uint64(level)
		if !cfg.NaturalCoding {
			code = mathx.GrayEncode(code)
		}
		for k := cfg.BitsPerSample - 1; k >= 0; k-- { // MSB first
			res.Bits = append(res.Bits, byte(code>>uint(k)&1))
		}
		res.Kept = append(res.Kept, offset+i)
	}
}

// inGuardBand reports whether x lies within the guard margin of either
// boundary of its level. The margin is α/2 of the local level width.
func inGuardBand(x float64, level int, bounds []float64, lo, hi, alpha float64) bool {
	left := lo
	if level > 0 {
		left = bounds[level-1]
	}
	right := hi
	if level < len(bounds) {
		right = bounds[level]
	}
	width := right - left
	if width <= 0 {
		return false
	}
	margin := alpha / 2 * width
	if level > 0 && x-left < margin {
		return true
	}
	if level < len(bounds) && right-x < margin {
		return true
	}
	return false
}

// IntersectKept restricts two quantizer results to the sample indices both
// parties kept, returning the aligned bit strings. This models the public
// index-exchange step of guard-banded schemes.
func IntersectKept(a, b Result, bitsPerSample int) (bitsA, bitsB []byte) {
	posA := make(map[int]int, len(a.Kept))
	for i, idx := range a.Kept {
		posA[idx] = i
	}
	for j, idx := range b.Kept {
		if i, ok := posA[idx]; ok {
			bitsA = append(bitsA, a.Bits[i*bitsPerSample:(i+1)*bitsPerSample]...)
			bitsB = append(bitsB, b.Bits[j*bitsPerSample:(j+1)*bitsPerSample]...)
		}
	}
	return bitsA, bitsB
}

// MeanThreshold emits one bit per sample: 1 where the sample exceeds its
// block mean.
func MeanThreshold(xs []float64, blockSize int) []byte {
	if blockSize <= 0 || blockSize > len(xs) {
		blockSize = len(xs)
	}
	out := make([]byte, 0, len(xs))
	for lo := 0; lo < len(xs); lo += blockSize {
		hi := lo + blockSize
		if hi > len(xs) {
			hi = len(xs)
		}
		m := mathx.Mean(xs[lo:hi])
		for _, x := range xs[lo:hi] {
			if x > m {
				out = append(out, 1)
			} else {
				out = append(out, 0)
			}
		}
	}
	return out
}

// Interval models the Gao et al. model-based extraction: the series is
// smoothed over `interval` samples, one representative is drawn per
// interval, and mean-threshold bits are emitted in rounds of `rounds`
// representatives (the per-round threshold window). Its bit yield is
// len(xs)/interval — deliberately low, matching the baseline's limited
// key generation rate.
func Interval(xs []float64, interval, rounds int) []byte {
	if interval <= 0 {
		interval = 20
	}
	if rounds <= 0 {
		rounds = 50
	}
	// Smooth then downsample.
	reps := make([]float64, 0, len(xs)/interval+1)
	for lo := 0; lo+interval <= len(xs); lo += interval {
		reps = append(reps, mathx.Mean(xs[lo:lo+interval]))
	}
	if len(reps) == 0 {
		return nil
	}
	return MeanThreshold(reps, rounds)
}
