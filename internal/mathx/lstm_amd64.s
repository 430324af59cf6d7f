#include "textflag.h"

// The LSTM step's vector kernels: the sigmoid and tanh activations over
// a slice, four lanes at a time, and the recurrent matrix-vector product
// with rows in lanes.
//
// Every activation lane performs math.Exp's operations as the standard
// library's amd64 assembly does on a CPU with AVX and FMA
// (math/exp_amd64.s, the avxfma branch): the same constants, the fused
// VFNMADD231 reduction and VFMADD213 Taylor steps, the rounding
// conversion of x·log2(e) to int32, and the final multiply by 2^k built
// from the exponent bits. It skips that routine's special cases, so a
// batch holding a lane that would reach one (NaN, ±Inf, or a biased
// exponent k+1023 ≤ 0, where math.Exp goes subnormal) is left unwritten
// for the caller's scalar path. The sigmoid and tanh arithmetic around
// the exponential, and the whole recurrence, fuse nothing, since the Go
// code they match compiles to separate multiplies and adds.

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

F64X4(lanesAbs, $0x7fffffffffffffff)   // sign bit clear
F64X4(lanesSign, $0x8000000000000000)  // sign bit alone
F64X4(lanesInf, $0x7ff0000000000000)   // +Inf
F64X4(lanesOne, $0x3ff0000000000000)   // 1.0
F64X4(lanesTwo, $0x4000000000000000)   // 2.0

// math/exp_amd64.s: LOG2E, LN2U, LN2L, the 1/16 argument reduction, and
// exprodata's Taylor coefficients 1/n! for n = 2..8.
F64X4(expLog2e, $0x3ff71547652b82fe)
F64X4(expLn2U, $0x3fe62e42fefa3000)
F64X4(expLn2L, $0x3d53de6af278ece6)
F64X4(expSixteenth, $0x3fb0000000000000)
F64X4(expT2, $0x3fe0000000000000)
F64X4(expT3, $0x3fc5555555555555)
F64X4(expT4, $0x3fa5555555555555)
F64X4(expT5, $0x3f81111111111111)
F64X4(expT6, $0x3f56c16c16c16c17)
F64X4(expT7, $0x3f2a01a01a01a01a)
F64X4(expT8, $0x3efa01a01a01a01a)
I32X4(expBias, $1023)

// math/tanh.go: tanhP, tanhQ, and the range edges 0.625 and 0.5·MAXLOG.
F64X4(tanhP0, $0xbfeedc5baafd6f4b)
F64X4(tanhP1, $0xc058d26a0e26682d)
F64X4(tanhP2, $0xc0993ac030580563)
F64X4(tanhQ0, $0x405c33f28a581b86)
F64X4(tanhQ1, $0x40a176fa0e5535fa)
F64X4(tanhQ2, $0x40b2ec102442040c)
F64X4(tanhSmall, $0x3fe4000000000000)
F64X4(tanhBig, $0x404601e678fc457b)

// EXPLANES sets Y1 = exp(Y0) lane by lane and X2 to the lanes' biased
// exponents k+1023 (int32), for the caller to check; it clobbers Y3 and
// Y4. Line for line, math's avxfma branch and its ldexp step.
#define EXPLANES \
	VMULPD       expLog2e<>(SB), Y0, Y1; \
	VCVTPD2DQY   Y1, X2; \
	VCVTDQ2PD    X2, Y3; \
	VMOVAPD      Y0, Y1; \
	VFNMADD231PD expLn2U<>(SB), Y3, Y1; \
	VFNMADD231PD expLn2L<>(SB), Y3, Y1; \
	VMULPD       expSixteenth<>(SB), Y1, Y1; \
	VMOVUPD      expT8<>(SB), Y4; \
	VFMADD213PD  expT7<>(SB), Y1, Y4; \
	VFMADD213PD  expT6<>(SB), Y1, Y4; \
	VFMADD213PD  expT5<>(SB), Y1, Y4; \
	VFMADD213PD  expT4<>(SB), Y1, Y4; \
	VFMADD213PD  expT3<>(SB), Y1, Y4; \
	VFMADD213PD  expT2<>(SB), Y1, Y4; \
	VFMADD213PD  lanesOne<>(SB), Y1, Y4; \
	VMULPD       Y4, Y1, Y1; \
	VADDPD       lanesTwo<>(SB), Y1, Y4; \
	VMULPD       Y4, Y1, Y1; \
	VADDPD       lanesTwo<>(SB), Y1, Y4; \
	VMULPD       Y4, Y1, Y1; \
	VADDPD       lanesTwo<>(SB), Y1, Y4; \
	VMULPD       Y4, Y1, Y1; \
	VADDPD       lanesTwo<>(SB), Y1, Y4; \
	VFMADD213PD  lanesOne<>(SB), Y4, Y1; \
	VPADDD       expBias<>(SB), X2, X2; \
	VPMOVSXDQ    X2, Y3; \
	VPSLLQ       $52, Y3, Y3; \
	VMULPD       Y3, Y1, Y1

// func sigmoidAVX2(dst, src []float64) (done int)
//
// Each lane computes Sigmoid(v): z = math.Exp(−|v|), which is the
// exponential either branch of Sigmoid takes, then 1/(1+z) where
// v ≥ 0 and z/(1+z) elsewhere. Registers: Y5 the batch, Y14 1.0, Y15 +0.
TEXT ·sigmoidAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	SHRQ $2, CX                    // full batches of four
	XORQ AX, AX                    // batches done
	VMOVUPD lanesOne<>(SB), Y14
	VXORPD  Y15, Y15, Y15
	VPXOR   X8, X8, X8

sigBatch:
	CMPQ AX, CX
	JAE  sigDone
	MOVQ AX, BX
	SHLQ $5, BX                    // 32 bytes per batch
	VMOVUPD (SI)(BX*1), Y5
	VANDPD  lanesAbs<>(SB), Y5, Y6
	VCMPPD  $0x11, lanesInf<>(SB), Y6, Y7   // |v| < +Inf: neither NaN nor ±Inf
	VORPD   lanesSign<>(SB), Y5, Y0         // −|v|
	EXPLANES
	VPCMPGTD  X8, X2, X3                    // k+1023 > 0: no subnormal result
	VPMOVSXDQ X3, Y3
	VANDPD    Y3, Y7, Y7
	VMOVMSKPD Y7, DX
	CMPQ      DX, $15
	JNE       sigDone

	VADDPD    Y14, Y1, Y2                   // 1 + z
	VCMPPD    $0x1d, Y15, Y5, Y3            // v ≥ 0
	VBLENDVPD Y3, Y14, Y1, Y4               // 1 where v ≥ 0, else z
	VDIVPD    Y2, Y4, Y4
	VMOVUPD   Y4, (DI)(BX*1)
	INCQ      AX
	JMP       sigBatch

sigDone:
	SHLQ $2, AX
	MOVQ AX, done+48(FP)
	VZEROUPPER
	RET

// func tanhAVX2(dst, src []float64) (done int)
//
// Each lane computes all three of math.Tanh's ranges for its x, z = |x|:
//
//	z > 0.5·MAXLOG:  ±1
//	z ≥ 0.625:       ±(1 − 2/(math.Exp(2z)+1))
//	otherwise:       x + x·s·((P0·s+P1)·s+P2) / (((s+Q0)·s+Q1)·s+Q2), s = x²
//
// and keeps the one its z selects, the sign taken from x. The middle
// range's 2z lies in [1.25, 88.1], where the exponential never leaves
// the normal range. Registers: Y5 the batch, Y6 z, Y13 x's sign bits,
// Y14 1.0, Y15 +0.
TEXT ·tanhAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	SHRQ $2, CX
	XORQ AX, AX
	VMOVUPD lanesOne<>(SB), Y14
	VXORPD  Y15, Y15, Y15

tanhBatch:
	CMPQ AX, CX
	JAE  tanhDone
	MOVQ AX, BX
	SHLQ $5, BX
	VMOVUPD   (SI)(BX*1), Y5
	VANDPD    lanesAbs<>(SB), Y5, Y6
	VCMPPD    $0x11, lanesInf<>(SB), Y6, Y7 // z < +Inf: neither NaN nor ±Inf
	VCMPPD    $0x04, Y15, Y5, Y3            // x ≠ 0: math.Tanh returns ±0 itself
	VANDPD    Y3, Y7, Y7
	VMOVMSKPD Y7, DX
	CMPQ      DX, $15
	JNE       tanhDone
	VANDPD    lanesSign<>(SB), Y5, Y13

	// Middle range into Y8.
	VADDPD    Y6, Y6, Y0                    // 2z, exact
	EXPLANES
	VADDPD    Y14, Y1, Y1                   // s + 1
	VMOVUPD   lanesTwo<>(SB), Y2
	VDIVPD    Y1, Y2, Y2                    // 2/(s+1)
	VSUBPD    Y2, Y14, Y8                   // 1 − 2/(s+1)
	VXORPD    Y13, Y8, Y8                   // negated where x < 0

	// Small range into Y12.
	VMULPD    Y5, Y5, Y9                    // s = x·x
	VMULPD    tanhP0<>(SB), Y9, Y10
	VADDPD    tanhP1<>(SB), Y10, Y10
	VMULPD    Y9, Y10, Y10
	VADDPD    tanhP2<>(SB), Y10, Y10        // (P0·s+P1)·s+P2
	VADDPD    tanhQ0<>(SB), Y9, Y11
	VMULPD    Y9, Y11, Y11
	VADDPD    tanhQ1<>(SB), Y11, Y11
	VMULPD    Y9, Y11, Y11
	VADDPD    tanhQ2<>(SB), Y11, Y11        // ((s+Q0)·s+Q1)·s+Q2
	VMULPD    Y9, Y5, Y12                   // x·s
	VMULPD    Y10, Y12, Y12
	VDIVPD    Y11, Y12, Y12
	VADDPD    Y12, Y5, Y12

	// Keep each lane's range: the middle where z ≥ 0.625, ±1 where
	// z > 0.5·MAXLOG.
	VCMPPD    $0x1d, tanhSmall<>(SB), Y6, Y3
	VBLENDVPD Y3, Y8, Y12, Y12
	VCMPPD    $0x1e, tanhBig<>(SB), Y6, Y3
	VORPD     Y13, Y14, Y10                 // ±1
	VBLENDVPD Y3, Y10, Y12, Y12
	VMOVUPD   Y12, (DI)(BX*1)
	INCQ      AX
	JMP       tanhBatch

tanhDone:
	SHLQ $2, AX
	MOVQ AX, done+48(FP)
	VZEROUPPER
	RET

// func addMatVecColMajorAVX2(wt []float64, rows int, x, out []float64)
//
// out[r] += Σ_c wt[c*rows+r]·x[c] for r < len(out) (a multiple of four),
// each lane one row, c ascending, a VMULPD then a VADDPD per term. Rows
// go 32 at a time in eight accumulators (Y0–Y7), then four at a time.
// SI walks one column of the current rows, R9 is the column stride.
TEXT ·addMatVecColMajorAVX2(SB), NOSPLIT, $0-80
	MOVQ wt_base+0(FP), R8
	MOVQ rows+24(FP), R9
	SHLQ $3, R9                    // column stride in bytes
	MOVQ x_base+32(FP), DX
	MOVQ x_len+40(FP), CX
	MOVQ out_base+56(FP), DI
	MOVQ out_len+64(FP), R12
	SHLQ $3, R12                   // bytes of out to do
	XORQ R10, R10                  // byte offset of the current rows

rows32:
	LEAQ 256(R10), R11
	CMPQ R11, R12
	JA   rows4
	VMOVUPD 0(DI)(R10*1), Y0
	VMOVUPD 32(DI)(R10*1), Y1
	VMOVUPD 64(DI)(R10*1), Y2
	VMOVUPD 96(DI)(R10*1), Y3
	VMOVUPD 128(DI)(R10*1), Y4
	VMOVUPD 160(DI)(R10*1), Y5
	VMOVUPD 192(DI)(R10*1), Y6
	VMOVUPD 224(DI)(R10*1), Y7
	LEAQ (R8)(R10*1), SI
	XORQ BX, BX

col32:
	CMPQ BX, CX
	JAE  store32
	VBROADCASTSD (DX)(BX*8), Y8
	VMULPD 0(SI), Y8, Y9
	VADDPD Y9, Y0, Y0
	VMULPD 32(SI), Y8, Y10
	VADDPD Y10, Y1, Y1
	VMULPD 64(SI), Y8, Y11
	VADDPD Y11, Y2, Y2
	VMULPD 96(SI), Y8, Y12
	VADDPD Y12, Y3, Y3
	VMULPD 128(SI), Y8, Y9
	VADDPD Y9, Y4, Y4
	VMULPD 160(SI), Y8, Y10
	VADDPD Y10, Y5, Y5
	VMULPD 192(SI), Y8, Y11
	VADDPD Y11, Y6, Y6
	VMULPD 224(SI), Y8, Y12
	VADDPD Y12, Y7, Y7
	ADDQ R9, SI
	INCQ BX
	JMP  col32

store32:
	VMOVUPD Y0, 0(DI)(R10*1)
	VMOVUPD Y1, 32(DI)(R10*1)
	VMOVUPD Y2, 64(DI)(R10*1)
	VMOVUPD Y3, 96(DI)(R10*1)
	VMOVUPD Y4, 128(DI)(R10*1)
	VMOVUPD Y5, 160(DI)(R10*1)
	VMOVUPD Y6, 192(DI)(R10*1)
	VMOVUPD Y7, 224(DI)(R10*1)
	MOVQ R11, R10
	JMP  rows32

rows4:
	LEAQ 32(R10), R11
	CMPQ R11, R12
	JA   done
	VMOVUPD (DI)(R10*1), Y0
	LEAQ (R8)(R10*1), SI
	XORQ BX, BX

col4:
	CMPQ BX, CX
	JAE  store4
	VBROADCASTSD (DX)(BX*8), Y8
	VMULPD (SI), Y8, Y9
	VADDPD Y9, Y0, Y0
	ADDQ R9, SI
	INCQ BX
	JMP  col4

store4:
	VMOVUPD Y0, (DI)(R10*1)
	MOVQ R11, R10
	JMP  rows4

done:
	VZEROUPPER
	RET
