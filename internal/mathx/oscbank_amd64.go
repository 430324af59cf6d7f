package mathx

// haveAVX2 selects OscBank's vector kernel, once, from what the CPU and
// the operating system support.
var haveAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports AVX2 support (CPUID leaf 7, EBX bit 5) together
// with an OS that saves the YMM registers across context switches
// (CPUID leaf 1 OSXSAVE and AVX, and XCR0 enabling both XMM and YMM
// state).
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYMMState = 1<<1 | 1<<2
	if xgetbv0()&xmmYMMState != xmmYMMState {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func oscBank(omega, phase []float64, scale float64, ts, out []float64) {
	if !haveAVX2 {
		oscBankGeneric(omega, phase, scale, ts, out)
		return
	}
	for len(ts) >= 4 {
		done := oscBankAVX2(omega, phase, scale, ts, out)
		ts, out = ts[done:], out[done:]
		if len(ts) >= 4 { // the kernel stopped at a batch with an out-of-range lane
			oscBankGeneric(omega, phase, scale, ts[:4], out[:4])
			ts, out = ts[4:], out[4:]
		}
	}
	if len(ts) == 0 {
		return
	}
	// Pad the tail to one full batch; the padding lanes' values are
	// discarded.
	var tp, op [4]float64
	copy(tp[:], ts)
	if oscBankAVX2(omega, phase, scale, tp[:], op[:]) == len(tp) {
		copy(out, op[:])
		return
	}
	oscBankGeneric(omega, phase, scale, ts, out)
}

// oscBankAVX2 runs the vector kernel over ts in batches of four,
// writing out, and returns how many times it finished: all full
// batches, or fewer when it stops at the first batch in which some
// argument leaves Cos's fast range (that batch's out is not written).
// Implemented in oscbank_amd64.s; callable only when haveAVX2.
//
//go:noescape
func oscBankAVX2(omega, phase []float64, scale float64, ts, out []float64) (done int)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)
