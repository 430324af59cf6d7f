package trace

import (
	"errors"

	"repro/internal/mathx"
)

// ExtractConfig controls arRSSI feature extraction.
type ExtractConfig struct {
	// WindowFraction is the share of each reception window used: the last
	// fraction of the earlier window (Bob's) and the first fraction of the
	// later window (Alice's). The paper's Fig. 9 sweep finds ≈ 0.10
	// optimal.
	WindowFraction float64
	// Blocks is the number of block-averaged arRSSI features produced per
	// exchange per side. Each feature is the mean of WindowFraction·N/Blocks
	// consecutive register reads.
	Blocks int
}

// DefaultExtract is the configuration selected by the paper: the adjacent
// 10 % of register samples, averaged into 4 features per exchange.
func DefaultExtract() ExtractConfig {
	return ExtractConfig{WindowFraction: 0.10, Blocks: 4}
}

func (c ExtractConfig) normalize() ExtractConfig {
	if c.WindowFraction <= 0 || c.WindowFraction > 1 {
		c.WindowFraction = 0.10
	}
	if c.Blocks <= 0 {
		c.Blocks = 4
	}
	return c
}

// edgeRange is the arRSSI edge rule as an index range over a reception
// of n register reads: the trailing fraction when tail is true (the
// earlier window), else the leading fraction (the later window). It
// covers at least one read whenever there is one.
func edgeRange(n int, fraction float64, tail bool) (lo, hi int) {
	k := int(fraction * float64(n))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	if tail {
		return n - k, n
	}
	return 0, k
}

// edgeFeatures block-averages one reception's edge reads into blocks
// arRSSI features. The earlier (tail) window's blocks are mirrored so
// feature 0 on every side is the block touching the shared window edge.
func edgeFeatures(edge []float64, blocks int, tail bool) []float64 {
	f := blockMeans(edge, blocks)
	if tail {
		return reverse(f)
	}
	return f
}

// arRSSI extracts one reception's arRSSI features from its full
// register stream.
func arRSSI(rrssi []float64, cfg ExtractConfig, tail bool) []float64 {
	lo, hi := edgeRange(len(rrssi), cfg.WindowFraction, tail)
	return edgeFeatures(rrssi[lo:hi], cfg.Blocks, tail)
}

// blockMeans averages samples into n consecutive block means. When there
// are fewer samples than blocks, the available samples are repeated so the
// output length is always n.
func blockMeans(samples []float64, n int) []float64 {
	out := make([]float64, n)
	if len(samples) == 0 {
		return out
	}
	for i := 0; i < n; i++ {
		lo := i * len(samples) / n
		hi := (i + 1) * len(samples) / n
		if hi <= lo {
			hi = lo + 1
		}
		if hi > len(samples) {
			hi = len(samples)
			lo = hi - 1
		}
		out[i] = mathx.Mean(samples[lo:hi])
	}
	return out
}

// ArRSSI extracts the per-exchange arRSSI feature vectors for Alice and
// Bob. Bob contributes the tail of his (earlier) window, Alice the head of
// hers. Bob's blocks are mirrored so feature 0 on both sides is the block
// touching the shared window edge: matched feature i is then separated by
// only the turnaround delay plus 2i block spans, the adjacency the paper's
// Fig. 4 observation exploits.
func ArRSSI(exchanges []Exchange, cfg ExtractConfig) (alice, bob [][]float64) {
	cfg = cfg.normalize()
	alice = make([][]float64, len(exchanges))
	bob = make([][]float64, len(exchanges))
	for i, ex := range exchanges {
		bob[i] = arRSSI(ex.BobRx.RRSSI, cfg, true)
		alice[i] = arRSSI(ex.AlcRx.RRSSI, cfg, false)
	}
	return alice, bob
}

func reverse(xs []float64) []float64 {
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
	return xs
}

// EveArRSSI extracts Eve's arRSSI features. An eavesdropping Eve mimics
// Bob's role (tail of the probe window); an imitating Eve mimics Alice's
// (head of the response window).
func EveArRSSI(exchanges []Exchange, cfg ExtractConfig, imitate bool) [][]float64 {
	cfg = cfg.normalize()
	out := make([][]float64, len(exchanges))
	for i, ex := range exchanges {
		if imitate {
			out[i] = arRSSI(ex.EveImitateRx.RRSSI, cfg, false)
		} else {
			out[i] = arRSSI(ex.EveEavesdropRx.RRSSI, cfg, true)
		}
	}
	return out
}

// PRSSI returns the per-exchange packet-averaged RSSI series for both
// sides — the legacy feature the paper's preliminary study shows is too
// asymmetric for LoRa key generation.
func PRSSI(exchanges []Exchange) (alice, bob []float64) {
	alice = make([]float64, len(exchanges))
	bob = make([]float64, len(exchanges))
	for i, ex := range exchanges {
		alice[i] = ex.AlcRx.PRSSI
		bob[i] = ex.BobRx.PRSSI
	}
	return alice, bob
}

// EvePRSSI returns Eve's per-exchange packet RSSI (eavesdropping channel).
func EvePRSSI(exchanges []Exchange) []float64 {
	out := make([]float64, len(exchanges))
	for i, ex := range exchanges {
		out[i] = ex.EveEavesdropRx.PRSSI
	}
	return out
}

// Flatten concatenates per-exchange feature vectors into one series.
func Flatten(features [][]float64) []float64 {
	var n int
	for _, f := range features {
		n += len(f)
	}
	out := make([]float64, 0, n)
	for _, f := range features {
		out = append(out, f...)
	}
	return out
}

// Correlation returns the Pearson correlation between two per-exchange
// feature sets, flattened.
func Correlation(a, b [][]float64) (float64, error) {
	fa, fb := Flatten(a), Flatten(b)
	if len(fa) != len(fb) {
		return 0, errors.New("trace: feature shape mismatch")
	}
	return mathx.Pearson(fa, fb)
}
