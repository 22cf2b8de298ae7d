#include "go_asm.h"
#include "textflag.h"

// func rk4Block8(t, p, scratch []float64, rows []nodeRow, pairs []couple, out *[8][]float64, amb *[8]float64, dt float64, live int)
//
// The packed-SSE2 form of rk4Block8Go: each XMM register holds two
// lanes, so a lane row (eight lanes, 64 bytes) is four registers and
// every SUBPD/MULPD/DIVPD/ADDPD does two lanes' scalar operation with
// the scalar rounding. t, p and scratch must be 16-byte aligned (the
// packed memory operands fault otherwise); BatchNetwork allocates them
// 64-byte aligned, one lane row per cache line.
//
// live is 4 or 8. At 8 every pass runs the node body over all four
// register pairs of a lane row; at 4 it runs the half body, the same
// instructions on the low two pairs (lanes 0–3) only, so lanes 4–7 of
// t, p, scratch and amb are neither read nor written. Each pair's
// operations are the same macros in the same order in both bodies.
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
//
// Each macro below is one register pair's share of a step: the pair at
// byte offset off of a lane row, source temperatures s, derivative d
// and temporary x.

// d = p - gAmb*(s - amb), gAmb broadcast in X10.
#define AMBIENT(off, s, x, d) \
	MOVAPD s, x; SUBPD off(R14), x; MULPD X10, x; MOVAPD off(R9)(CX*8), d; SUBPD x, d

// d -= g*(s - src[j]), g broadcast in X10 and &src[j*8] in R13.
#define COUPLE(off, s, x, d) \
	MOVAPD s, x; SUBPD off(R13), x; MULPD X10, x; SUBPD x, d

// stage = t + factor*d, factor broadcast in X9.
#define STAGE(off, d, x) \
	MOVAPD d, x; MULPD X9, x; ADDPD off(R8)(CX*8), x; MOVAPD x, off(R12)(CX*8)

// acc = acc + 2*d (d+d is 2*d exactly).
#define ACCUMULATE(off, d) \
	ADDPD d, d; ADDPD off(R10)(CX*8), d; MOVAPD d, off(R10)(CX*8)

// x = t = t + dt/6*(acc + d), in place, dt/6 broadcast in X9.
#define FINAL(off, d, x) \
	MOVAPD off(R10)(CX*8), x; ADDPD d, x; MULPD X9, x; ADDPD off(R8)(CX*8), x; MOVAPD x, off(R8)(CX*8)

// Scatter x's two lanes, whose out entries are at lo and hi(AX), to
// node i of their own storage.
#define SCATTER(lo, hi, x) \
	MOVQ lo(AX), R13; MOVSD x, (R13)(CX*1); MOVQ hi(AX), R13; MOVHPD x, (R13)(CX*1)

// Load coupling c's g into X10 and &src[j*8] into R13.
#define LOADCOUPLE \
	MOVQ couple_j(SI), R13; SHLQ $6, R13; ADDQ R11, R13; MOVSD couple_g(SI), X10; UNPCKLPD X10, X10

TEXT ·rk4Block8(SB), NOSPLIT, $0-152
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
	CMPQ live+144(FP), $4
	JEQ half

node:
	MOVAPD (R11)(CX*8), X0
	MOVAPD 16(R11)(CX*8), X1
	MOVAPD 32(R11)(CX*8), X2
	MOVAPD 48(R11)(CX*8), X3

	MOVSD nodeRow_gAmb(DI), X10
	UNPCKLPD X10, X10
	AMBIENT(0, X0, X11, X4)
	AMBIENT(16, X1, X12, X5)
	AMBIENT(32, X2, X13, X6)
	AMBIENT(48, X3, X14, X7)

	// Each coupling of row i, ascending j.
	MOVQ nodeRow_n(DI), AX
	TESTQ AX, AX
	JZ divide

couple:
	LOADCOUPLE
	COUPLE(0, X0, X11, X4)
	COUPLE(16, X1, X12, X5)
	COUPLE(32, X2, X13, X6)
	COUPLE(48, X3, X14, X7)
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

	STAGE(0, X4, X11)
	STAGE(16, X5, X12)
	STAGE(32, X6, X13)
	STAGE(48, X7, X14)

	TESTQ BX, BX
	JNZ accumulate

	// Pass 0: acc = k1.
	MOVAPD X4, (R10)(CX*8)
	MOVAPD X5, 16(R10)(CX*8)
	MOVAPD X6, 32(R10)(CX*8)
	MOVAPD X7, 48(R10)(CX*8)
	JMP next

accumulate:
	// Passes 1 and 2.
	ACCUMULATE(0, X4)
	ACCUMULATE(16, X5)
	ACCUMULATE(32, X6)
	ACCUMULATE(48, X7)
	JMP next

final:
	// Pass 3, then lane l's node i to out[l][i].
	FINAL(0, X4, X11)
	FINAL(16, X5, X12)
	FINAL(32, X6, X13)
	FINAL(48, X7, X14)
	MOVQ out+120(FP), AX
	SCATTER(0, 24, X11)
	SCATTER(48, 72, X12)
	SCATTER(96, 120, X13)
	SCATTER(144, 168, X14)

next:
	ADDQ $nodeRow__size, DI
	ADDQ $8, CX
	CMPQ CX, DX
	JLT node

endpass:
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

	// The half body: the node body on register pairs 0 and 1.
half:
	MOVAPD (R11)(CX*8), X0
	MOVAPD 16(R11)(CX*8), X1

	MOVSD nodeRow_gAmb(DI), X10
	UNPCKLPD X10, X10
	AMBIENT(0, X0, X11, X4)
	AMBIENT(16, X1, X12, X5)

	MOVQ nodeRow_n(DI), AX
	TESTQ AX, AX
	JZ hdivide

hcouple:
	LOADCOUPLE
	COUPLE(0, X0, X11, X4)
	COUPLE(16, X1, X12, X5)
	ADDQ $couple__size, SI
	DECQ AX
	JNZ hcouple

hdivide:
	MOVSD nodeRow_capc(DI), X10
	UNPCKLPD X10, X10
	DIVPD X10, X4
	DIVPD X10, X5

	CMPQ BX, $3
	JEQ hfinal

	STAGE(0, X4, X11)
	STAGE(16, X5, X12)

	TESTQ BX, BX
	JNZ haccumulate

	MOVAPD X4, (R10)(CX*8)
	MOVAPD X5, 16(R10)(CX*8)
	JMP hnext

haccumulate:
	ACCUMULATE(0, X4)
	ACCUMULATE(16, X5)
	JMP hnext

hfinal:
	FINAL(0, X4, X11)
	FINAL(16, X5, X12)
	MOVQ out+120(FP), AX
	SCATTER(0, 24, X11)
	SCATTER(48, 72, X12)

hnext:
	ADDQ $nodeRow__size, DI
	ADDQ $8, CX
	CMPQ CX, DX
	JLT half
	JMP endpass
