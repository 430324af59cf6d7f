#include "textflag.h"

// The vector oscillator bank behind OscBank. Every lane performs, for
// its own time t, the scalar loop
//
//	s := 0.0
//	for p := range omega { s += Cos(float64(omega[p]*t) + phase[p]) }
//	out = s * scale
//
// with Cos's exact sequence of IEEE operations (trig.go): the same
// Cody–Waite constants and polynomial rows, the sign flipped by XOR.
// Where Cos indexes trigPoly by octant bit 1, the kernel evaluates both
// series and each lane blends in the one its octant takes, so the
// value a lane keeps went through exactly Cos's operations. No
// instruction fuses a multiply with an add, since the scalar code the
// lanes match has none. The truncating conversion of |x|·4/π to int32
// is exact because the lanes it is kept for have |x| < 2^29, so
// |x|·4/π < 2^31; a batch where any lane fails that test (NaN, ±Inf or
// |x| ≥ 2^29) is left unwritten for the caller's scalar path.

// F64X4 declares a read-only 32-byte vector of four copies of one
// float64 bit pattern; I32X4 a 16-byte vector of four int32s.
#define F64X4(name, bits) \
	DATA name<>+0(SB)/8, bits; \
	DATA name<>+8(SB)/8, bits; \
	DATA name<>+16(SB)/8, bits; \
	DATA name<>+24(SB)/8, bits; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

#define I32X4(name, v) \
	DATA name<>+0(SB)/4, v; \
	DATA name<>+4(SB)/4, v; \
	DATA name<>+8(SB)/4, v; \
	DATA name<>+12(SB)/4, v; \
	GLOBL name<>(SB), RODATA|NOPTR, $16

F64X4(oscAbs, $0x7fffffffffffffff)        // sign bit clear
F64X4(oscLimit, $0x41c0000000000000)      // 2^29, cosReduceThreshold
F64X4(oscFourOverPi, $0x3ff45f306dc9c883) // 4/π
F64X4(oscPi4A, $0x3fe921fb40000000)
F64X4(oscPi4B, $0x3e64442d00000000)
F64X4(oscPi4C, $0x3ce8469898cc5170)
F64X4(oscHalf, $0x3fe0000000000000)       // 0.5
F64X4(oscOne, $0x3ff0000000000000)        // 1.0

// trigPoly[0], the cosine series, and trigPoly[1], the sine series.
F64X4(oscCos0, $0xbda8fa49a0861a9b)
F64X4(oscCos1, $0x3e21ee9d7b4e3f05)
F64X4(oscCos2, $0xbe927e4f7eac4bc6)
F64X4(oscCos3, $0x3efa01a019c844f5)
F64X4(oscCos4, $0xbf56c16c16c14f91)
F64X4(oscCos5, $0x3fa555555555554b)

F64X4(oscSin0, $0x3de5d8fd1fd19ccd)
F64X4(oscSin1, $0xbe5ae5e5a9291f5d)
F64X4(oscSin2, $0x3ec71de3567d48a1)
F64X4(oscSin3, $0xbf2a01a019bfdf03)
F64X4(oscSin4, $0x3f8111111110f7d0)
F64X4(oscSin5, $0xbfc5555555555548)

I32X4(oscInt1, $1)
I32X4(oscInt2, $2)
I32X4(oscInt4, $4)

// func oscBankAVX2(omega, phase []float64, scale float64, ts, out []float64) (done int)
//
// Registers: Y0 the batch's four times, Y15 the running sums, Y14 the
// lanes still in range, Y13 1.0; Y1–Y12 hold one term's temporaries.
TEXT ·oscBankAVX2(SB), NOSPLIT, $0-112
	MOVQ omega_base+0(FP), SI
	MOVQ omega_len+8(FP), CX
	MOVQ phase_base+24(FP), DI
	MOVQ ts_base+56(FP), R8
	MOVQ ts_len+64(FP), R10
	MOVQ out_base+80(FP), R9
	SHRQ $2, R10                   // full batches of four times
	XORQ AX, AX                    // batches done
	VMOVUPD oscOne<>(SB), Y13

batch:
	CMPQ AX, R10
	JAE  finish
	MOVQ AX, BX
	SHLQ $5, BX                    // 32 bytes per batch
	VMOVUPD (R8)(BX*1), Y0
	VXORPD  Y15, Y15, Y15          // s = +0
	VPCMPEQQ Y14, Y14, Y14         // every lane in range so far
	XORQ DX, DX

term:
	CMPQ DX, CX
	JAE  store
	VBROADCASTSD (SI)(DX*8), Y1
	VMULPD       Y0, Y1, Y1        // ω·t
	VBROADCASTSD (DI)(DX*8), Y2
	VADDPD       Y2, Y1, Y1        // x = ω·t + φ
	VANDPD       oscAbs<>(SB), Y1, Y1              // |x|
	VCMPPD       $0x11, oscLimit<>(SB), Y1, Y2     // |x| < 2^29 (false for NaN)
	VANDPD       Y2, Y14, Y14

	// j := uint64(int64(x * (4 / math.Pi))); j += j & 1; y := float64(j)
	VMULPD      oscFourOverPi<>(SB), Y1, Y3
	VCVTTPD2DQY Y3, X3
	VPAND       oscInt1<>(SB), X3, X4
	VPADDD      X4, X3, X3
	VCVTDQ2PD   X3, Y4

	// z := ((x - y*pi4A) - y*pi4B) - y*pi4C; zz := z * z
	VMULPD oscPi4A<>(SB), Y4, Y5
	VSUBPD Y5, Y1, Y5
	VMULPD oscPi4B<>(SB), Y4, Y6
	VSUBPD Y6, Y5, Y5
	VMULPD oscPi4C<>(SB), Y4, Y6
	VSUBPD Y6, Y5, Y5
	VMULPD Y5, Y5, Y6

	// Y7: all ones where (j>>1)&1, the lanes taking the sine series.
	VPSLLD    $30, X3, X7
	VPSRAD    $31, X7, X7
	VPMOVSXDQ X7, Y7

	// Y12: the sign bit where ((j+2)&4) != 0.
	VPADDD    oscInt2<>(SB), X3, X12
	VPAND     oscInt4<>(SB), X12, X12
	VPMOVZXDQ X12, Y12
	VPSLLQ    $61, Y12, Y12

	// Both series' polynomials,
	//   p := (((((c0*zz)+c1)*zz+c2)*zz+c3)*zz+c4)*zz + c5,
	// over trigPoly[0] (cosine, Y8) and trigPoly[1] (sine, Y9).
	VMULPD oscCos0<>(SB), Y6, Y8
	VMULPD oscSin0<>(SB), Y6, Y9
	VADDPD oscCos1<>(SB), Y8, Y8
	VADDPD oscSin1<>(SB), Y9, Y9
	VMULPD Y6, Y8, Y8
	VMULPD Y6, Y9, Y9
	VADDPD oscCos2<>(SB), Y8, Y8
	VADDPD oscSin2<>(SB), Y9, Y9
	VMULPD Y6, Y8, Y8
	VMULPD Y6, Y9, Y9
	VADDPD oscCos3<>(SB), Y8, Y8
	VADDPD oscSin3<>(SB), Y9, Y9
	VMULPD Y6, Y8, Y8
	VMULPD Y6, Y9, Y9
	VADDPD oscCos4<>(SB), Y8, Y8
	VADDPD oscSin4<>(SB), Y9, Y9
	VMULPD Y6, Y8, Y8
	VMULPD Y6, Y9, Y9
	VADDPD oscCos5<>(SB), Y8, Y8
	VADDPD oscSin5<>(SB), Y9, Y9

	// r := head + m*zz*p for both series, cosine (1 - 0.5*zz) + (zz*zz)*p
	// and sine z + (z*zz)*p; each lane keeps its octant's, sign
	// flipped, added to the lane's sum.
	VMULPD    Y6, Y6, Y10
	VMULPD    Y8, Y10, Y10
	VMULPD    oscHalf<>(SB), Y6, Y11
	VSUBPD    Y11, Y13, Y11
	VADDPD    Y10, Y11, Y10
	VMULPD    Y6, Y5, Y11
	VMULPD    Y9, Y11, Y11
	VADDPD    Y11, Y5, Y11
	VBLENDVPD Y7, Y11, Y10, Y10
	VXORPD    Y12, Y10, Y10
	VADDPD    Y10, Y15, Y15

	INCQ DX
	JMP  term

store:
	VMOVMSKPD Y14, DX
	CMPQ      DX, $15
	JNE       finish               // a lane left the fast range
	VBROADCASTSD scale+48(FP), Y1
	VMULPD    Y1, Y15, Y15
	VMOVUPD   Y15, (R9)(BX*1)
	INCQ      AX
	JMP       batch

finish:
	SHLQ $2, AX
	MOVQ AX, done+104(FP)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
