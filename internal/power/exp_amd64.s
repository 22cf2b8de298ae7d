#include "textflag.h"

// A packed 8-lane form of Go's amd64 math.Exp (math/exp_amd64.s, after
// Shibata, "Efficient evaluation methods of elementary functions
// suitable for SIMD computation", ISC'10). math.Exp runs one of two
// operation sequences, chosen once per process: an SSE2 one and, when
// the CPU has AVX and FMA, one with fused multiply-adds. expFMA replays
// the FMA sequence operation for operation, so each lane rounds exactly
// where the scalar code does; hosts on the SSE2 sequence call math.Exp.
//
// The kernel takes the in-range path only: for -708 <= x <= 709 the
// scaled exponent k+1023 stays within [2, 2046], so math.Exp's
// overflow, denormal and not-finite branches are never taken and the
// final multiply by 2^k is exact. A block with any lane outside that
// range (NaN included) ends the call; the caller evaluates it with
// math.Exp.

// BCAST4 stores the float64 v four times from off: one 32-byte row.
#define BCAST4(off, v) \
	DATA expconst<>+(off)(SB)/8, v; \
	DATA expconst<>+(off+8)(SB)/8, v; \
	DATA expconst<>+(off+16)(SB)/8, v; \
	DATA expconst<>+(off+24)(SB)/8, v

BCAST4(0, $-708.0)
BCAST4(32, $709.0)
BCAST4(64, $1.4426950408889634073599246810018920)      // log2(e)
BCAST4(96, $0.69314718055966295651160180568695068359375) // upper half of ln 2
BCAST4(128, $0.28235290563031577122588448175013436025525412068e-12) // lower half
BCAST4(160, $0.0625)
BCAST4(192, $2.4801587301587301587e-5)
BCAST4(224, $1.9841269841269841270e-4)
BCAST4(256, $1.3888888888888888889e-3)
BCAST4(288, $8.3333333333333333333e-3)
BCAST4(320, $4.1666666666666666667e-2)
BCAST4(352, $1.6666666666666666667e-1)
BCAST4(384, $0.5)
BCAST4(416, $1.0)
BCAST4(448, $2.0)
DATA expconst<>+480(SB)/4, $1023
DATA expconst<>+484(SB)/4, $1023
DATA expconst<>+488(SB)/4, $1023
DATA expconst<>+492(SB)/4, $1023
GLOBL expconst<>(SB), RODATA|NOPTR, $512

#define LO expconst<>+0(SB)
#define HI expconst<>+32(SB)
#define LOG2E expconst<>+64(SB)
#define LN2U expconst<>+96(SB)
#define LN2L expconst<>+128(SB)
#define SIXTEENTH expconst<>+160(SB)
#define C8 expconst<>+192(SB)
#define C7 expconst<>+224(SB)
#define C6 expconst<>+256(SB)
#define C5 expconst<>+288(SB)
#define C4 expconst<>+320(SB)
#define C3 expconst<>+352(SB)
#define HALF expconst<>+384(SB)
#define ONE expconst<>+416(SB)
#define TWO expconst<>+448(SB)
#define BIAS expconst<>+480(SB)

// FMA helpers over the two lane quads x = Y0, Y1.

// LOAD4 loads lanes off/8 to off/8+3 of the block at (SI)(AX*8) into
// y, through the scratch register t, one 8-byte load per lane: the
// caller writes its inputs one float64 at a time, and a wider load
// spanning several of those stores could not be forwarded from them.
#define LOAD4(off, x, y, t) \
	VMOVSD off(SI)(AX*8), x; \
	VMOVHPD off+8(SI)(AX*8), x, x; \
	VMOVSD off+16(SI)(AX*8), t; \
	VMOVHPD off+24(SI)(AX*8), t, t; \
	VINSERTF128 $1, t, y, y

// KSTEP4: k = round(x*log2e) as four integers in ki and floats in kf.
#define KSTEP4(x, kf, ki) \
	VMULPD LOG2E, x, kf; \
	VCVTPD2DQY kf, ki; \
	VCVTDQ2PD ki, kf

// SCALE4: x *= 2^k. AVX has no 256-bit integer ops, so 2^k is built
// in two 128-bit halves and joined.
#define SCALE4(x, ki, lo, hi, ylo) \
	VPADDD BIAS, ki, ki; \
	VPUNPCKLDQ ki, ki, lo; \
	VPUNPCKHDQ ki, ki, hi; \
	VPSLLQ $52, lo, lo; \
	VPSLLQ $52, hi, hi; \
	VINSERTF128 $1, hi, ylo, ylo; \
	VMULPD ylo, x, x

// func expFMA(dst, src []float64) int
//
// The FMA sequence of math.Exp, four lanes per YMM register: the
// scalar VFNMADD231SD/VFMADD213SD become their packed forms and every
// other MULSD/ADDSD/CVTSD2SL/CVTSL2SD its VMULPD/VADDPD/VCVTPD2DQ/
// VCVTDQ2PD counterpart, rounding under the same MXCSR mode. AVX and
// FMA3 only, no AVX2 integer ops; the caller selects this kernel only
// when math.Exp itself runs the FMA sequence, which Go enables only
// when the CPU and OS support both.
//
// Registers:
//	SI  src          DI  dst          AX  values done     CX  blocks left
//	Y0-Y1 x, then r, then the result  Y2-Y3 k as floats, then p
//	X4-X5 k as integers               Y6-Y9 scratch
TEXT ·expFMA(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	SHRQ $3, CX
	XORQ AX, AX

fmablock:
	TESTQ CX, CX
	JZ fmadone
	LOAD4(0, X0, Y0, X6)
	LOAD4(32, X1, Y1, X7)

	// Every lane must satisfy LO <= x <= HI; NaN fails both
	// (predicate 2: less-or-equal, ordered).
	VMOVUPD LO, Y8
	VMOVUPD HI, Y9
	VCMPPD $2, Y0, Y8, Y6
	VCMPPD $2, Y9, Y0, Y7
	VANDPD Y7, Y6, Y6
	VCMPPD $2, Y1, Y8, Y7
	VANDPD Y7, Y6, Y6
	VCMPPD $2, Y9, Y1, Y7
	VANDPD Y7, Y6, Y6
	VMOVMSKPD Y6, BX
	CMPQ BX, $15
	JNE fmadone

	// k = round(x*log2e)
	KSTEP4(Y0, Y2, X4)
	KSTEP4(Y1, Y3, X5)

	// x = -(k*ln2u) + x, then -(k*ln2l) + x, each fused.
	VMOVUPD LN2U, Y8
	VFNMADD231PD Y8, Y2, Y0
	VFNMADD231PD Y8, Y3, Y1
	VMOVUPD LN2L, Y8
	VFNMADD231PD Y8, Y2, Y0
	VFNMADD231PD Y8, Y3, Y1

	// r = x/16
	VMOVUPD SIXTEENTH, Y8
	VMULPD Y8, Y0, Y0
	VMULPD Y8, Y1, Y1

	// Taylor series: p = c8, then p = p*r + c (fused) down to 1.
	VMOVUPD C8, Y2
	VMOVUPD C8, Y3
	VFMADD213PD C7, Y0, Y2
	VFMADD213PD C7, Y1, Y3
	VFMADD213PD C6, Y0, Y2
	VFMADD213PD C6, Y1, Y3
	VFMADD213PD C5, Y0, Y2
	VFMADD213PD C5, Y1, Y3
	VFMADD213PD C4, Y0, Y2
	VFMADD213PD C4, Y1, Y3
	VFMADD213PD C3, Y0, Y2
	VFMADD213PD C3, Y1, Y3
	VFMADD213PD HALF, Y0, Y2
	VFMADD213PD HALF, Y1, Y3
	VFMADD213PD ONE, Y0, Y2
	VFMADD213PD ONE, Y1, Y3

	// r = r*p, three double-angle steps r = r*(r+2), and a fourth
	// fused with the final +1: r = r*(r+2) + 1.
	VMULPD Y2, Y0, Y0
	VMULPD Y3, Y1, Y1
	VMOVUPD TWO, Y8
	VADDPD Y8, Y0, Y2
	VMULPD Y2, Y0, Y0
	VADDPD Y8, Y1, Y3
	VMULPD Y3, Y1, Y1
	VADDPD Y8, Y0, Y2
	VMULPD Y2, Y0, Y0
	VADDPD Y8, Y1, Y3
	VMULPD Y3, Y1, Y1
	VADDPD Y8, Y0, Y2
	VMULPD Y2, Y0, Y0
	VADDPD Y8, Y1, Y3
	VMULPD Y3, Y1, Y1
	VADDPD Y8, Y0, Y2
	VFMADD213PD ONE, Y2, Y0
	VADDPD Y8, Y1, Y3
	VFMADD213PD ONE, Y3, Y1

	// Scale by 2^k.
	SCALE4(Y0, X4, X6, X7, Y6)
	SCALE4(Y1, X5, X8, X9, Y8)

	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	ADDQ $8, AX
	DECQ CX
	JMP fmablock

fmadone:
	VZEROUPPER
	MOVQ AX, ret+48(FP)
	RET
