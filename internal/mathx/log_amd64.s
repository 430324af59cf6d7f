#include "textflag.h"

// The vector decimal logarithm behind Log10s. Every lane performs, for
// its own x, the standard library's amd64 logarithm (math/log_amd64.s,
// archLog) operation for operation: frexp by bit masks, the
// compare-and-double when the fraction is at most √2/2 (archLog's
// CMPSD predicate), s = f/(2+f) by a true division, the L1–L7 rows,
// and the Ln2Hi/Ln2Lo recombination, with no fused multiply-add, since
// archLog has none. Each lane then multiplies by 1/Ln10, as math.Log10
// does on amd64. archLog converts the exponent with CVTSL2SD; the
// kernel forms the same integer k exactly as (2^52 + e) − (2^52 + 1022)
// from the exponent bits e. A batch holding a lane that is not a
// positive normal number (±0, a subnormal, a negative, NaN or ±Inf) is
// left unwritten for the caller's scalar path.

// F64X4 declares a read-only 32-byte vector of four copies of one
// float64 bit pattern.
#define F64X4(name, bits) \
	DATA name<>+0(SB)/8, bits; \
	DATA name<>+8(SB)/8, bits; \
	DATA name<>+16(SB)/8, bits; \
	DATA name<>+24(SB)/8, bits; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

F64X4(logMant, $0x000fffffffffffff)     // fraction bits; the largest subnormal
F64X4(logInf, $0x7ff0000000000000)      // +Inf
F64X4(logHalf, $0x3fe0000000000000)     // 0.5
F64X4(logOne, $0x3ff0000000000000)      // 1.0
F64X4(logTwo, $0x4000000000000000)      // 2.0
F64X4(logTwo52, $0x4330000000000000)    // 2^52
F64X4(logExpBias, $0x43300000000003fe)  // 2^52 + 1022
F64X4(logHSqrt2, $0x3fe6a09e667f3bcd)   // √2/2
F64X4(logLn2Hi, $0x3fe62e42fee00000)
F64X4(logLn2Lo, $0x3dea39ef35793c76)
F64X4(logL1, $0x3fe5555555555593)
F64X4(logL2, $0x3fd999999997fa04)
F64X4(logL3, $0x3fd2492494229359)
F64X4(logL4, $0x3fcc71c51d8e78af)
F64X4(logL5, $0x3fc7466496cb03de)
F64X4(logL6, $0x3fc39a09d078c69f)
F64X4(logL7, $0x3fc2f112df3e5244)
F64X4(logInvLn10, $0x3fdbcb7b1526e50e)  // 1/Ln10

// func log10sAVX2(x, out []float64) (done int)
//
// Registers: Y0 the batch's four values, Y1 f1 then f, Y2 k, Y4 s,
// Y5 s2 then t1 and R, Y6 s4 then t2 and hfsq; Y3 and Y7 are
// temporaries.
TEXT ·log10sAVX2(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ out_base+24(FP), DI
	SHRQ $2, CX                    // full batches of four values
	XORQ AX, AX                    // batches done

batch:
	CMPQ AX, CX
	JAE  finish
	MOVQ AX, BX
	SHLQ $5, BX                    // 32 bytes per batch
	VMOVUPD (SI)(BX*1), Y0

	// Every lane a positive normal: as a signed integer its bit pattern
	// lies strictly between the largest subnormal and +Inf.
	VPCMPGTQ  logMant<>(SB), Y0, Y1
	VMOVDQU   logInf<>(SB), Y2
	VPCMPGTQ  Y0, Y2, Y2
	VPAND     Y2, Y1, Y1
	VMOVMSKPD Y1, DX
	CMPQ      DX, $15
	JNE       finish

	// f1, ki := Frexp(x); k := float64(ki)
	VANDPD logMant<>(SB), Y0, Y1
	VORPD  logHalf<>(SB), Y1, Y1           // f1
	VPSRLQ $52, Y0, Y2
	VPOR   logTwo52<>(SB), Y2, Y2          // 2^52 + e
	VSUBPD logExpBias<>(SB), Y2, Y2        // k = e − 1022, exact

	// if f1 <= √2/2 { k -= 1; f1 *= 2 }, through a 0-or-1 mask
	VCMPPD $0x02, logHSqrt2<>(SB), Y1, Y3  // f1 <= √2/2
	VANDPD logOne<>(SB), Y3, Y3            // 0 or 1
	VSUBPD Y3, Y2, Y2
	VADDPD logOne<>(SB), Y3, Y3            // 1 or 2
	VMULPD Y3, Y1, Y1

	// f := f1 - 1; s := f / (2 + f); s2 := s * s; s4 := s2 * s2
	VSUBPD logOne<>(SB), Y1, Y1
	VADDPD logTwo<>(SB), Y1, Y3
	VDIVPD Y3, Y1, Y4
	VMULPD Y4, Y4, Y5
	VMULPD Y5, Y5, Y6

	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	VMULPD logL7<>(SB), Y6, Y7
	VADDPD logL5<>(SB), Y7, Y7
	VMULPD Y6, Y7, Y7
	VADDPD logL3<>(SB), Y7, Y7
	VMULPD Y6, Y7, Y7
	VADDPD logL1<>(SB), Y7, Y7
	VMULPD Y7, Y5, Y5

	// t2 := s4 * (L2 + s4*(L4+s4*L6)); R := t1 + t2
	VMULPD logL6<>(SB), Y6, Y7
	VADDPD logL4<>(SB), Y7, Y7
	VMULPD Y6, Y7, Y7
	VADDPD logL2<>(SB), Y7, Y7
	VMULPD Y7, Y6, Y6
	VADDPD Y6, Y5, Y5

	// hfsq := 0.5 * f * f
	VMULPD logHalf<>(SB), Y1, Y6
	VMULPD Y1, Y6, Y6

	// k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f), times 1/Ln10
	VADDPD Y6, Y5, Y5
	VMULPD Y5, Y4, Y4
	VMULPD logLn2Lo<>(SB), Y2, Y5
	VADDPD Y5, Y4, Y4
	VSUBPD Y4, Y6, Y6
	VSUBPD Y1, Y6, Y6
	VMULPD logLn2Hi<>(SB), Y2, Y2
	VSUBPD Y6, Y2, Y2
	VMULPD logInvLn10<>(SB), Y2, Y2
	VMOVUPD Y2, (DI)(BX*1)
	INCQ    AX
	JMP     batch

finish:
	SHLQ $2, AX
	MOVQ AX, done+48(FP)
	VZEROUPPER
	RET
