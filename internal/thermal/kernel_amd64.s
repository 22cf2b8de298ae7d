#include "go_asm.h"
#include "textflag.h"

// func rk4Block8(t, p, scratch []float64, rows []nodeRow, pairs []couple, out *[8][]float64, amb *[8]float64, dt float64)
//
// The packed-SSE2 form of rk4Block8Go: each XMM register holds two
// lanes, so a lane row (eight lanes, 64 bytes) is four registers and
// every SUBPD/MULPD/DIVPD/ADDPD does two lanes' scalar operation with
// the scalar rounding. t, p and scratch must be 16-byte aligned (the
// packed memory operands fault otherwise); BatchNetwork allocates them
// 64-byte aligned, one lane row per cache line.
//
// The final pass also stores each lane's new temperatures to
// out[l][i], the member network's own storage (or a sink for padding
// lanes), so no separate scatter pass is needed.
//
// amb is the block's ambient row (lane l's ambient temperature at
// amb[l]), read as packed memory operands, so it must be 16-byte
// aligned too.
//
// Registers:
//	R8  t            R9  p            R10 acc (scratch lane rows [0, m))
//	R11 pass source  R12 pass stage   DX  m*8 (a vector is DX*8 bytes)
//	CX  i*8: lane row i is at CX*8, node i of a lane's own storage at CX
//	DI  &rows[i]     SI  &pairs[c]    AX  couples left in the row / &out
//	R13 &src[j*8] / &out[l][0]        BX  pass number
//	R14 amb (ABI0 code may clobber R14; the ABI wrapper restores g)
//	X0-X3 src row i    X4-X7 derivative d    X9 stage factor
//	X10 broadcast scalar (gAmb, g, capc)     X11-X14 temporaries
TEXT ·rk4Block8(SB), NOSPLIT, $0-144
	MOVQ t_base+0(FP), R8
	MOVQ p_base+24(FP), R9
	MOVQ scratch_base+48(FP), R10
	MOVQ rows_len+80(FP), DX
	SHLQ $3, DX
	MOVQ amb+128(FP), R14

	// Pass 0: src = t, stage -> sa, factor 0.5*dt.
	XORQ BX, BX
	MOVQ R8, R11
	LEAQ (R10)(DX*8), R12
	MOVSD $0.5, X9
	MULSD dt+136(FP), X9
	UNPCKLPD X9, X9

pass:
	MOVQ rows_base+72(FP), DI
	MOVQ pairs_base+96(FP), SI
	XORQ CX, CX

node:
	MOVAPD (R11)(CX*8), X0
	MOVAPD 16(R11)(CX*8), X1
	MOVAPD 32(R11)(CX*8), X2
	MOVAPD 48(R11)(CX*8), X3

	// d = p - gAmb*(t - amb)
	MOVSD nodeRow_gAmb(DI), X10
	UNPCKLPD X10, X10
	MOVAPD X0, X11
	SUBPD (R14), X11
	MULPD X10, X11
	MOVAPD (R9)(CX*8), X4
	SUBPD X11, X4
	MOVAPD X1, X12
	SUBPD 16(R14), X12
	MULPD X10, X12
	MOVAPD 16(R9)(CX*8), X5
	SUBPD X12, X5
	MOVAPD X2, X13
	SUBPD 32(R14), X13
	MULPD X10, X13
	MOVAPD 32(R9)(CX*8), X6
	SUBPD X13, X6
	MOVAPD X3, X14
	SUBPD 48(R14), X14
	MULPD X10, X14
	MOVAPD 48(R9)(CX*8), X7
	SUBPD X14, X7

	// d -= g*(t - src[j]) for each coupling of row i, ascending j.
	MOVQ nodeRow_n(DI), AX
	TESTQ AX, AX
	JZ divide

couple:
	MOVQ couple_j(SI), R13
	SHLQ $6, R13
	ADDQ R11, R13
	MOVSD couple_g(SI), X10
	UNPCKLPD X10, X10
	MOVAPD X0, X11
	SUBPD (R13), X11
	MULPD X10, X11
	SUBPD X11, X4
	MOVAPD X1, X12
	SUBPD 16(R13), X12
	MULPD X10, X12
	SUBPD X12, X5
	MOVAPD X2, X13
	SUBPD 32(R13), X13
	MULPD X10, X13
	SUBPD X13, X6
	MOVAPD X3, X14
	SUBPD 48(R13), X14
	MULPD X10, X14
	SUBPD X14, X7
	ADDQ $couple__size, SI
	DECQ AX
	JNZ couple

divide:
	MOVSD nodeRow_capc(DI), X10
	UNPCKLPD X10, X10
	DIVPD X10, X4
	DIVPD X10, X5
	DIVPD X10, X6
	DIVPD X10, X7

	CMPQ BX, $3
	JEQ final

	// stage = t + factor*d
	MOVAPD X4, X11
	MULPD X9, X11
	ADDPD (R8)(CX*8), X11
	MOVAPD X11, (R12)(CX*8)
	MOVAPD X5, X12
	MULPD X9, X12
	ADDPD 16(R8)(CX*8), X12
	MOVAPD X12, 16(R12)(CX*8)
	MOVAPD X6, X13
	MULPD X9, X13
	ADDPD 32(R8)(CX*8), X13
	MOVAPD X13, 32(R12)(CX*8)
	MOVAPD X7, X14
	MULPD X9, X14
	ADDPD 48(R8)(CX*8), X14
	MOVAPD X14, 48(R12)(CX*8)

	TESTQ BX, BX
	JNZ accumulate

	// Pass 0: acc = k1.
	MOVAPD X4, (R10)(CX*8)
	MOVAPD X5, 16(R10)(CX*8)
	MOVAPD X6, 32(R10)(CX*8)
	MOVAPD X7, 48(R10)(CX*8)
	JMP next

accumulate:
	// Passes 1 and 2: acc = acc + 2*k (d+d is 2*d exactly).
	ADDPD X4, X4
	ADDPD (R10)(CX*8), X4
	MOVAPD X4, (R10)(CX*8)
	ADDPD X5, X5
	ADDPD 16(R10)(CX*8), X5
	MOVAPD X5, 16(R10)(CX*8)
	ADDPD X6, X6
	ADDPD 32(R10)(CX*8), X6
	MOVAPD X6, 32(R10)(CX*8)
	ADDPD X7, X7
	ADDPD 48(R10)(CX*8), X7
	MOVAPD X7, 48(R10)(CX*8)
	JMP next

final:
	// Pass 3: t = t + dt/6*(acc + k4), in place.
	MOVAPD (R10)(CX*8), X11
	ADDPD X4, X11
	MULPD X9, X11
	ADDPD (R8)(CX*8), X11
	MOVAPD X11, (R8)(CX*8)
	MOVAPD 16(R10)(CX*8), X12
	ADDPD X5, X12
	MULPD X9, X12
	ADDPD 16(R8)(CX*8), X12
	MOVAPD X12, 16(R8)(CX*8)
	MOVAPD 32(R10)(CX*8), X13
	ADDPD X6, X13
	MULPD X9, X13
	ADDPD 32(R8)(CX*8), X13
	MOVAPD X13, 32(R8)(CX*8)
	MOVAPD 48(R10)(CX*8), X14
	ADDPD X7, X14
	MULPD X9, X14
	ADDPD 48(R8)(CX*8), X14
	MOVAPD X14, 48(R8)(CX*8)

	// Scatter lane l's node i to out[l][i].
	MOVQ out+120(FP), AX
	MOVQ 0(AX), R13
	MOVSD X11, (R13)(CX*1)
	MOVQ 24(AX), R13
	MOVHPD X11, (R13)(CX*1)
	MOVQ 48(AX), R13
	MOVSD X12, (R13)(CX*1)
	MOVQ 72(AX), R13
	MOVHPD X12, (R13)(CX*1)
	MOVQ 96(AX), R13
	MOVSD X13, (R13)(CX*1)
	MOVQ 120(AX), R13
	MOVHPD X13, (R13)(CX*1)
	MOVQ 144(AX), R13
	MOVSD X14, (R13)(CX*1)
	MOVQ 168(AX), R13
	MOVHPD X14, (R13)(CX*1)

next:
	ADDQ $nodeRow__size, DI
	ADDQ $8, CX
	CMPQ CX, DX
	JLT node

	INCQ BX
	CMPQ BX, $1
	JNE pass2
	// Pass 1: src = sa, stage -> sb, factor 0.5*dt.
	LEAQ (R10)(DX*8), R11
	LEAQ (R11)(DX*8), R12
	JMP pass

pass2:
	CMPQ BX, $2
	JNE pass3
	// Pass 2: src = sb, stage -> sa, factor dt.
	MOVQ R12, R11
	LEAQ (R10)(DX*8), R12
	MOVSD dt+136(FP), X9
	UNPCKLPD X9, X9
	JMP pass

pass3:
	CMPQ BX, $3
	JNE done
	// Pass 3: src = sa, factor dt/6.
	MOVQ R12, R11
	MOVSD dt+136(FP), X9
	MOVSD $6.0, X10
	DIVSD X10, X9
	UNPCKLPD X9, X9
	JMP pass

done:
	RET
