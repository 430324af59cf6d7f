package mathx

func log10s(x, out []float64) {
	if !haveAVX2 {
		log10sGeneric(x, out)
		return
	}
	for len(x) >= 4 {
		done := log10sAVX2(x, out)
		x, out = x[done:], out[done:]
		if len(x) >= 4 { // the kernel stopped at a batch with a special lane
			log10sGeneric(x[:4], out[:4])
			x, out = x[4:], out[4:]
		}
	}
	if len(x) == 0 {
		return
	}
	// Pad the tail to one full batch with 1, a positive normal; the
	// padding lanes' values are discarded.
	xp, op := [4]float64{1, 1, 1, 1}, [4]float64{}
	copy(xp[:], x)
	if log10sAVX2(xp[:], op[:]) == len(xp) {
		copy(out, op[:])
		return
	}
	log10sGeneric(x, out)
}

// log10sAVX2 runs the vector kernel over x in batches of four, writing
// out, and returns how many values it finished: all full batches, or
// fewer when it stops at the first batch holding a lane that is not a
// positive normal number (that batch's out is not written).
// Implemented in log_amd64.s; callable only when haveAVX2.
//
//go:noescape
func log10sAVX2(x, out []float64) (done int)
