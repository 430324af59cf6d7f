package mathx

func activate(tanh bool, dst, src []float64) {
	if !haveAVX2 {
		activateGeneric(tanh, dst, src)
		return
	}
	for len(src) >= 4 {
		done := activateAVX2(tanh, dst, src)
		dst, src = dst[done:], src[done:]
		if len(src) >= 4 { // the kernel stopped at a batch with an uncovered lane
			activateGeneric(tanh, dst[:4], src[:4])
			dst, src = dst[4:], src[4:]
		}
	}
	if len(src) == 0 {
		return
	}
	// Pad the tail to one full batch with 1, which every lane covers;
	// the padding lanes' values are discarded.
	sp, dp := [4]float64{1, 1, 1, 1}, [4]float64{}
	copy(sp[:], src)
	if activateAVX2(tanh, dp[:], sp[:]) == len(sp) {
		copy(dst, dp[:])
		return
	}
	activateGeneric(tanh, dst, src)
}

// activateAVX2 runs the sigmoid or the tanh kernel over src in batches
// of four, writing dst, and returns how many values it finished: all
// full batches, or fewer when it stops at the first batch holding an
// uncovered lane (that batch's dst is not written).
func activateAVX2(tanh bool, dst, src []float64) int {
	if tanh {
		return tanhAVX2(dst, src)
	}
	return sigmoidAVX2(dst, src)
}

func addMatVecColMajor(wt []float64, rows int, x, out []float64) {
	if !haveAVX2 {
		addColMajorRows(wt, rows, 0, x, out)
		return
	}
	lanes := rows &^ 3
	addMatVecColMajorAVX2(wt, rows, x, out[:lanes])
	if lanes < rows {
		addColMajorRows(wt, rows, lanes, x, out)
	}
}

// sigmoidAVX2 and tanhAVX2 are activateAVX2's kernels, implemented in
// lstm_amd64.s; callable only when haveAVX2.
//
//go:noescape
func sigmoidAVX2(dst, src []float64) (done int)

//go:noescape
func tanhAVX2(dst, src []float64) (done int)

// addMatVecColMajorAVX2 adds the column-major wt's terms (rows rows, one
// column per element of x) to out, whose length is a multiple of four
// and at most rows. Implemented in lstm_amd64.s; callable only when
// haveAVX2.
//
//go:noescape
func addMatVecColMajorAVX2(wt []float64, rows int, x, out []float64)
