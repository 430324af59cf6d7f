package core

import (
	"fmt"

	"repro/internal/mathx"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// Metrics aggregates key-generation quality over an evaluation set, the
// quantities the paper's evaluation reports throughout Sec. V.
type Metrics struct {
	Blocks int // completed reconciliation blocks

	// PreKAR is the mean bit agreement before reconciliation (Fig. 10's
	// quantity) and PreKARStd its standard deviation across blocks.
	PreKAR    float64
	PreKARStd float64

	// PostKAR is the mean bit agreement after reconciliation — the
	// paper's headline "key agreement rate" (98.87 % average).
	PostKAR    float64
	PostKARStd float64

	// ExactRate is the fraction of blocks ending with identical keys.
	ExactRate float64

	// KGR is the key generation rate in agreed bits per second of probing
	// time (Fig. 13's quantity); NetKGR additionally subtracts the bits
	// revealed publicly during reconciliation, the rate at which *secret*
	// material actually accumulates.
	KGR    float64
	NetKGR float64
}

// String implements fmt.Stringer.
func (m Metrics) String() string {
	return fmt.Sprintf("blocks=%d preKAR=%.2f%%±%.2f postKAR=%.2f%%±%.2f exact=%.1f%% KGR=%.2f bit/s net=%.2f bit/s",
		m.Blocks, 100*m.PreKAR, 100*m.PreKARStd, 100*m.PostKAR, 100*m.PostKARStd, 100*m.ExactRate, m.KGR, m.NetKGR)
}

// Evaluate streams the dataset's samples through key generation and
// aggregates block metrics. salt seeds the session value.
func (s *System) Evaluate(ds *trace.Dataset, salt []byte) (Metrics, error) {
	return s.evaluate(ds.Samples, salt, ds.TotalDuration())
}

// EvaluateEve measures an attacker's best key agreement against Bob. Eve
// runs the same trained model over her own measurements (she knows the
// full protocol, including Bob's announced kept indices) and, per the
// paper's Fig. 15 methodology, feeds the intercepted code vector y_Bob to
// the reconciler with her own key material: her sequence takes Alice's
// place in the key stream, confidence gating included.
func (s *System) EvaluateEve(ds *trace.Dataset, imitate bool, salt []byte) (Metrics, error) {
	samples := make([]trace.Sample, len(ds.Samples))
	for i, smp := range ds.Samples {
		smp.Alice = smp.EveEavesdrop
		if imitate {
			smp.Alice = smp.EveImitate
		}
		samples[i] = smp
	}
	return s.evaluate(samples, salt, 0)
}

// evaluate runs samples through one key stream; totalTime (seconds of
// probing) enables the KGR fields when positive.
func (s *System) evaluate(samples []trace.Sample, salt []byte, totalTime float64) (Metrics, error) {
	ks := s.NewKeyStream(salt)
	var results []KeyResult
	for _, smp := range samples {
		rs, err := ks.Push(smp)
		if err != nil {
			return Metrics{}, err
		}
		results = append(results, rs...)
	}
	return Aggregate(results, totalTime), nil
}

// EvaluateStream runs the scheme's quantizer and reconciler over a pair
// of full measurement streams, the Fig. 12/13 figure path: both sides
// quantize with the measurement-side rule, the order-aligned bit
// streams are cut into reconciliation blocks, and each block is
// reconciled locally and folded by the same aggregation as Evaluate.
// It deliberately performs no kept-index alignment, preserving each
// baseline paper's own (mis)alignment behavior on a time-varying
// channel, and no amplification. totalTime is the probing time that
// produced the streams.
func (s *System) EvaluateStream(alice, bob []float64, totalTime float64) (Metrics, error) {
	st := s.Stages
	ba, _, err := st.Quantizer.Quantize(alice)
	if err != nil {
		return Metrics{}, &pipeline.StageError{Scheme: st.Scheme, Stage: "quantizer", Err: err}
	}
	bb, _, err := st.Quantizer.Quantize(bob)
	if err != nil {
		return Metrics{}, &pipeline.StageError{Scheme: st.Scheme, Stage: "quantizer", Err: err}
	}
	block := st.Reconciler.BlockBits()
	n := min(len(ba), len(bb))
	var results []KeyResult
	for lo := 0; lo+block <= n; lo += block {
		a, b := ba[lo:lo+block], bb[lo:lo+block]
		out, err := st.Reconciler.Reconcile(a, b, nil)
		if err != nil {
			return Metrics{}, &pipeline.StageError{Scheme: st.Scheme, Stage: "reconciler", Err: err}
		}
		results = append(results, blockResult(a, b, out))
	}
	return Aggregate(results, totalTime), nil
}

// Aggregate folds a set of key results into Metrics; totalTime (seconds
// of probing) enables the KGR fields when positive. It is the only place
// per-block outcomes become Metrics.
func Aggregate(results []KeyResult, totalTime float64) Metrics {
	var m Metrics
	m.Blocks = len(results)
	if m.Blocks == 0 {
		return m
	}
	var pre, post []float64
	var agreedBits, netBits float64
	for _, r := range results {
		pre = append(pre, r.PreAgreement)
		post = append(post, r.PostAgreement)
		if r.Exact {
			m.ExactRate++
		}
		agreedBits += r.PostAgreement * float64(r.BitsGenerated)
		if nb := r.PostAgreement*float64(r.BitsGenerated) - float64(r.LeakedBits); nb > 0 {
			netBits += nb
		}
	}
	m.PreKAR, m.PreKARStd = mathx.Mean(pre), mathx.Std(pre)
	m.PostKAR, m.PostKARStd = mathx.Mean(post), mathx.Std(post)
	m.ExactRate /= float64(m.Blocks)
	if totalTime > 0 {
		m.KGR = agreedBits / totalTime
		m.NetKGR = netBits / totalTime
	}
	return m
}
