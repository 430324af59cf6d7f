package trace

import (
	"errors"
	"fmt"

	"repro/internal/mathx"
	"repro/internal/rng"
)

// Sample is one training/evaluation item for the prediction model: an
// aligned window of arRSSI features from both sides (and Eve's view of the
// same window, for attack evaluation).
type Sample struct {
	Alice []float64 // Alice's arRSSI sequence (model input)
	Bob   []float64 // Bob's arRSSI sequence (prediction target)

	EveEavesdrop []float64 // Eve's aligned features, eavesdropping position
	EveImitate   []float64 // Eve's aligned features, imitating position

	// Duration is the channel-probing wall time that produced the sample,
	// used for key-generation-rate accounting.
	Duration float64
}

// Dataset is a set of samples from one scenario plus the normalization
// constants fitted on it. Vehicle-Key normalizes arRSSI to zero mean and
// unit variance before feeding the network.
type Dataset struct {
	Scenario Scenario
	Samples  []Sample
	// Mean and Std are the raw features' dataset-level mean and standard
	// deviation over the legitimate sides the dataset derived: Alice and
	// Bob for Build, those of the two in rx for BuildFor.
	Mean   float64
	Std    float64
	SeqLen int

	blockSize int // features per exchange, for detrending
}

// Build runs enough probe rounds in the scenario to produce n samples
// with sequence length seqLen and extracts normalized arRSSI features
// for every receiver. All randomness derives from seed.
func Build(sc Scenario, seed int64, n, seqLen int, cfg ExtractConfig) (*Dataset, error) {
	return BuildFor(sc, seed, n, seqLen, cfg, Alice|Bob|Eve)
}

// BuildFor is Build for the receivers in rx only (through
// Collector.Features: only their edge reads are synthesized). A selected
// side's samples are bit-identical to Build's; an unselected side's are
// nil.
func BuildFor(sc Scenario, seed int64, n, seqLen int, cfg ExtractConfig, rx Receivers) (*Dataset, error) {
	if n <= 0 || seqLen <= 0 {
		return nil, errors.New("trace: n and seqLen must be positive")
	}
	cfg = cfg.normalize()
	if seqLen%cfg.Blocks != 0 {
		return nil, fmt.Errorf("trace: seqLen %d must be a multiple of Blocks %d", seqLen, cfg.Blocks)
	}
	perSample := seqLen / cfg.Blocks
	ft := NewCollector(sc, seed).Features(n*perSample, cfg, rx)

	ds := &Dataset{Scenario: sc, SeqLen: seqLen, Samples: make([]Sample, 0, n), blockSize: cfg.Blocks}
	for s := 0; s < n; s++ {
		lo, hi := s*perSample, (s+1)*perSample
		window := func(side [][]float64) []float64 {
			if side == nil {
				return nil
			}
			out := make([]float64, 0, seqLen)
			for _, f := range side[lo:hi] {
				out = append(out, f...)
			}
			return out
		}
		smp := Sample{
			Alice:        window(ft.Alice),
			Bob:          window(ft.Bob),
			EveEavesdrop: window(ft.EveEavesdrop),
			EveImitate:   window(ft.EveImitate),
		}
		for _, d := range ft.Duration[lo:hi] {
			smp.Duration += d
		}
		ds.Samples = append(ds.Samples, smp)
	}
	ds.fitNormalization()
	return ds, nil
}

// fitNormalization z-scores every window by its own mean and standard
// deviation, each side using only its own measurements (no exchange
// needed). Per-window normalization is load-bearing twice over: it
// removes the large-scale trend (path loss level) from the quantizer's
// view, which (a) keeps the key bits from following a trend an attacker
// can observe by driving the same route, and (b) keeps the bit stream
// unbiased when the vehicles are far apart (NIST randomness). The
// dataset-level Mean/Std are retained for reference.
func (d *Dataset) fitNormalization() {
	var all []float64
	for _, s := range d.Samples {
		all = append(all, s.Alice...)
		all = append(all, s.Bob...)
	}
	d.Mean = mathx.Mean(all)
	d.Std = mathx.Std(all)
	if d.Std == 0 {
		d.Std = 1
	}
	for i := range d.Samples {
		for _, seq := range [][]float64{
			d.Samples[i].Alice, d.Samples[i].Bob,
			d.Samples[i].EveEavesdrop, d.Samples[i].EveImitate,
		} {
			detrendExchanges(seq, d.blockSize)
			mathx.Normalize(seq)
		}
	}
}

// detrendExchanges removes the smooth large-scale trend from a feature
// window: each exchange's features are reduced by the mean level of the
// *neighboring* exchanges (±2, excluding the exchange itself). Path loss
// varies smoothly across exchanges and is cancelled; the per-exchange
// shadowing deviation — which decorrelates between exchanges and is the
// key's actual entropy source — is preserved because the exchange's own
// level never enters its trend estimate. The trend is exactly what an
// attacker replaying the route can observe, so it must not reach the
// quantizer.
func detrendExchanges(xs []float64, blockSize int) {
	if blockSize <= 0 || len(xs) < 2*blockSize {
		return
	}
	nEx := len(xs) / blockSize
	means := make([]float64, nEx)
	for e := 0; e < nEx; e++ {
		means[e] = mathx.Mean(xs[e*blockSize : (e+1)*blockSize])
	}
	for e := 0; e < nEx; e++ {
		var sum float64
		var cnt int
		for j := e - 2; j <= e+2; j++ {
			if j == e || j < 0 || j >= nEx {
				continue
			}
			sum += means[j]
			cnt++
		}
		if cnt == 0 {
			continue
		}
		trend := sum / float64(cnt)
		for i := e * blockSize; i < (e+1)*blockSize; i++ {
			xs[i] -= trend
		}
	}
}

// Split shuffles and partitions the dataset into train/val/test parts with
// the given fractions (the paper uses 70/15/15). The normalization
// constants are shared by all three parts.
func (d *Dataset) Split(trainFrac, valFrac float64, src *rng.Source) (train, val, test *Dataset) {
	idx := src.Perm(len(d.Samples))
	nTrain := int(trainFrac * float64(len(idx)))
	nVal := int(valFrac * float64(len(idx)))
	part := func(ids []int) *Dataset {
		p := &Dataset{Scenario: d.Scenario, Mean: d.Mean, Std: d.Std, SeqLen: d.SeqLen, blockSize: d.blockSize}
		p.Samples = make([]Sample, len(ids))
		for i, id := range ids {
			p.Samples[i] = d.Samples[id]
		}
		return p
	}
	return part(idx[:nTrain]), part(idx[nTrain : nTrain+nVal]), part(idx[nTrain+nVal:])
}

// Subset returns a dataset with the first fraction of samples — used by
// the transfer-learning experiment's "transfer-10%" conditions.
func (d *Dataset) Subset(fraction float64) *Dataset {
	n := int(fraction * float64(len(d.Samples)))
	if n < 1 {
		n = 1
	}
	if n > len(d.Samples) {
		n = len(d.Samples)
	}
	return &Dataset{Scenario: d.Scenario, Mean: d.Mean, Std: d.Std, SeqLen: d.SeqLen, Samples: d.Samples[:n], blockSize: d.blockSize}
}

// TotalDuration sums the probing time across samples.
func (d *Dataset) TotalDuration() float64 {
	var t float64
	for _, s := range d.Samples {
		t += s.Duration
	}
	return t
}
