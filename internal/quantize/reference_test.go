package quantize

import (
	"fmt"
	"testing"

	"repro/internal/mathx"
	"repro/internal/rng"
)

// refMultiBit is MultiBit as it was before it sized its result once: the
// result grows by append, and every kept sample's code comes from a
// temporary slice. It is kept only as the oracle MultiBit must match.
func refMultiBit(xs []float64, cfg MultiBitConfig) Result {
	block := cfg.BlockSize
	if block <= 0 || block > len(xs) {
		block = len(xs)
	}
	levels := 1 << cfg.BitsPerSample
	var res Result
	for lo := 0; lo < len(xs); lo += block {
		refQuantizeBlock(xs[lo:min(lo+block, len(xs))], lo, levels, cfg, &res)
	}
	return res
}

func refQuantizeBlock(xs []float64, offset, levels int, cfg MultiBitConfig, res *Result) {
	bounds := cfg.Thresholds
	if bounds == nil {
		bounds = mathx.Quantiles(xs, levels)
	}
	if bounds == nil {
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
	lo, hi := mathx.MinMax(xs)
	if cfg.Thresholds != nil {
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
		if cfg.NaturalCoding {
			res.Bits = append(res.Bits, refCodeBits(uint64(level), cfg.BitsPerSample)...)
		} else {
			res.Bits = append(res.Bits, refCodeBits(mathx.GrayEncode(uint64(level)), cfg.BitsPerSample)...)
		}
		res.Kept = append(res.Kept, offset+i)
	}
}

// refCodeBits returns the width low bits of n, MSB first.
func refCodeBits(n uint64, width int) []byte {
	out := make([]byte, width)
	for i := 0; i < width; i++ {
		out[i] = byte(n >> uint(width-1-i) & 1)
	}
	return out
}

func sameResult(got, want Result) bool {
	return string(got.Bits) == string(want.Bits) && fmt.Sprint(got.Kept) == fmt.Sprint(want.Kept)
}

// TestMultiBitMatchesReference pins MultiBit to the append-per-sample
// oracle: natural and Gray codes, guard band on and off, fixed and
// per-block quantile thresholds, 1 to 8 bits per sample, a short last
// block, and blocks too short for quantiles (the mean-threshold
// fallback).
func TestMultiBitMatchesReference(t *testing.T) {
	src := rng.New(11)
	for _, n := range []int{1, 2, 3, 7, 64, 100} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = src.Normal(0, 1)
		}
		for _, bps := range []int{1, 2, 3, 8} {
			for _, guard := range []float64{0, 0.5, 0.85} {
				for _, fixed := range []bool{false, true} {
					for _, natural := range []bool{false, true} {
						for _, block := range []int{0, 2, 32} {
							cfg := MultiBitConfig{BitsPerSample: bps, GuardRatio: guard, BlockSize: block, NaturalCoding: natural}
							if fixed {
								cfg.Thresholds = GaussianThresholds(bps)
							}
							got, err := MultiBit(xs, cfg)
							if err != nil {
								t.Fatal(err)
							}
							if want := refMultiBit(xs, cfg); !sameResult(got, want) {
								t.Fatalf("n=%d %+v: got %v %v, oracle %v %v", n, cfg, got.Bits, got.Kept, want.Bits, want.Kept)
							}
						}
					}
				}
			}
		}
	}
}

var multiBitSink Result

// BenchmarkMultiBit quantizes 64-sample predicted sequences with
// Vehicle-Key's settings: 2 natural-coded bits per sample against the
// Gaussian thresholds, 32-sample blocks, guard ratio 0.85. It cycles
// through 256 sequences, so the branch predictor cannot learn one
// input's levels and guard decisions.
func BenchmarkMultiBit(b *testing.B) {
	src := rng.New(12)
	seqs := make([][]float64, 256)
	for k := range seqs {
		seqs[k] = make([]float64, 64)
		for i := range seqs[k] {
			seqs[k][i] = src.Normal(0, 1)
		}
	}
	cfg := MultiBitConfig{BitsPerSample: 2, GuardRatio: 0.85, BlockSize: 32, Thresholds: GaussianThresholds(2), NaturalCoding: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := MultiBit(seqs[i%len(seqs)], cfg)
		if err != nil {
			b.Fatal(err)
		}
		multiBitSink = res
	}
}
