package pipeline

import "repro/internal/mathx"

// StreamResult aggregates one scheme's stream evaluation, mirroring
// core.Metrics for the paper's Fig. 12/13 comparison.
type StreamResult struct {
	Blocks     int
	PreKAR     float64
	PreKARStd  float64
	PostKAR    float64
	PostKARStd float64
	KGR        float64 // agreed bits per probing second (gross)
	NetKGR     float64 // agreed bits minus publicly leaked bits, per second
}

// EvaluateStream runs one scheme's quantizer and reconciler over a pair
// of full measurement streams: both sides quantize with the
// measurement-side rule, the order-aligned bit streams are cut into
// reconciliation blocks, and each block is reconciled locally. This is
// the figure-regeneration path; it deliberately performs no kept-index
// alignment, preserving each baseline paper's own (mis)alignment
// behavior on a time-varying channel. totalTime is the probing time
// that produced the streams.
func EvaluateStream(st Stages, alice, bob []float64, totalTime float64) (StreamResult, error) {
	ba, _, err := st.Quantizer.Quantize(alice)
	if err != nil {
		return StreamResult{}, &StageError{Scheme: st.Scheme, Stage: "quantizer", Err: err}
	}
	bb, _, err := st.Quantizer.Quantize(bob)
	if err != nil {
		return StreamResult{}, &StageError{Scheme: st.Scheme, Stage: "quantizer", Err: err}
	}
	blockSize := st.Reconciler.BlockBits()
	n := len(ba)
	if len(bb) < n {
		n = len(bb)
	}
	var res StreamResult
	var pre, post []float64
	var agreedBits, netBits float64
	for lo := 0; lo+blockSize <= n; lo += blockSize {
		a := ba[lo : lo+blockSize]
		b := bb[lo : lo+blockSize]
		p, err := mathx.BitAgreement(a, b)
		if err != nil {
			return StreamResult{}, err
		}
		out, err := st.Reconciler.Reconcile(a, b, nil)
		if err != nil {
			return StreamResult{}, &StageError{Scheme: st.Scheme, Stage: "reconciler", Err: err}
		}
		pre = append(pre, p)
		post = append(post, out.Agreement())
		agreedBits += out.Agreement() * float64(blockSize)
		if nb := out.Agreement()*float64(blockSize) - float64(out.LeakedKeyBits); nb > 0 {
			netBits += nb
		}
		res.Blocks++
	}
	if res.Blocks == 0 {
		return res, nil
	}
	res.PreKAR, res.PreKARStd = mathx.Mean(pre), mathx.Std(pre)
	res.PostKAR, res.PostKARStd = mathx.Mean(post), mathx.Std(post)
	if totalTime > 0 {
		res.KGR = agreedBits / totalTime
		res.NetKGR = netBits / totalTime
	}
	return res, nil
}
