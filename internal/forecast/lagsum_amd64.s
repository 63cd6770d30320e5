#include "textflag.h"

// SSE2 versions of the twins in lagsum.go, bit for bit. Each output
// is one lane of an accumulator; every step adds that lane's next
// product with one MULPD and one ADDPD, each rounded on its own, in
// ascending i from +0, so a lane is the twin's scalar chain. No FMA.

// MADD16 adds X8 (one coefficient in both halves) times the 16 values
// at ptr into the accumulators X0–X7.
#define MADD16(ptr) \
	MOVUPD 0(ptr), X9;   MULPD X8, X9;  ADDPD X9, X0; \
	MOVUPD 16(ptr), X10; MULPD X8, X10; ADDPD X10, X1; \
	MOVUPD 32(ptr), X11; MULPD X8, X11; ADDPD X11, X2; \
	MOVUPD 48(ptr), X12; MULPD X8, X12; ADDPD X12, X3; \
	MOVUPD 64(ptr), X13; MULPD X8, X13; ADDPD X13, X4; \
	MOVUPD 80(ptr), X14; MULPD X8, X14; ADDPD X14, X5; \
	MOVUPD 96(ptr), X15; MULPD X8, X15; ADDPD X15, X6; \
	MOVUPD 112(ptr), X9; MULPD X8, X9;  ADDPD X9, X7

#define ZERO16 \
	XORPD X0, X0; XORPD X1, X1; XORPD X2, X2; XORPD X3, X3; \
	XORPD X4, X4; XORPD X5, X5; XORPD X6, X6; XORPD X7, X7

// func lagSums16SSE2(out *[16]float64, a, b []float64)
TEXT ·lagSums16SSE2(SB), NOSPLIT, $0-56
	MOVQ a_base+8(FP), SI
	MOVQ a_len+16(FP), CX
	MOVQ b_base+32(FP), DI
	ZERO16
	TESTQ CX, CX
	JZ   done

loop:
	MOVSD    (SI), X8
	UNPCKLPD X8, X8
	MADD16(DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  loop

done:
	MOVQ   out+0(FP), AX
	MOVUPD X0, 0(AX)
	MOVUPD X1, 16(AX)
	MOVUPD X2, 32(AX)
	MOVUPD X3, 48(AX)
	MOVUPD X4, 64(AX)
	MOVUPD X5, 80(AX)
	MOVUPD X6, 96(AX)
	MOVUPD X7, 112(AX)
	RET

// func lagSums4SSE2(out *[4]float64, a, b []float64)
TEXT ·lagSums4SSE2(SB), NOSPLIT, $0-56
	MOVQ  a_base+8(FP), SI
	MOVQ  a_len+16(FP), CX
	MOVQ  b_base+32(FP), DI
	XORPD X0, X0
	XORPD X1, X1
	TESTQ CX, CX
	JZ    done

loop:
	MOVSD    (SI), X8
	UNPCKLPD X8, X8
	MOVUPD   0(DI), X9
	MULPD    X8, X9
	ADDPD    X9, X0
	MOVUPD   16(DI), X10
	MULPD    X8, X10
	ADDPD    X10, X1
	ADDQ     $8, SI
	ADDQ     $8, DI
	DECQ     CX
	JNZ      loop

done:
	MOVQ   out+0(FP), AX
	MOVUPD X0, 0(AX)
	MOVUPD X1, 16(AX)
	RET

// func stage1BlocksSSE2(eps, x, long []float64) int
TEXT ·stage1BlocksSSE2(SB), NOSPLIT, $0-80
	MOVQ eps_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), DX
	MOVQ long_base+48(FP), R8
	MOVQ long_len+56(FP), R9
	MOVQ R9, AX // t = len(long)

block:
	LEAQ 16(AX), BX // the block is x[t : t+16]
	CMPQ BX, DX
	JGT  done
	ZERO16
	LEAQ  -8(SI)(AX*8), R10 // &x[t-1], the window for long[0]
	MOVQ  R8, R11
	MOVQ  R9, CX
	TESTQ CX, CX
	JZ    store

terms:
	MOVSD    (R11), X8
	UNPCKLPD X8, X8
	MADD16(R10)
	ADDQ $8, R11
	SUBQ $8, R10
	DECQ CX
	JNZ  terms

store: // eps[t+j] = x[t+j] - sum_j
	LEAQ   (SI)(AX*8), R10
	LEAQ   (DI)(AX*8), R11
	MOVUPD 0(R10), X9
	SUBPD  X0, X9
	MOVUPD X9, 0(R11)
	MOVUPD 16(R10), X9
	SUBPD  X1, X9
	MOVUPD X9, 16(R11)
	MOVUPD 32(R10), X9
	SUBPD  X2, X9
	MOVUPD X9, 32(R11)
	MOVUPD 48(R10), X9
	SUBPD  X3, X9
	MOVUPD X9, 48(R11)
	MOVUPD 64(R10), X9
	SUBPD  X4, X9
	MOVUPD X9, 64(R11)
	MOVUPD 80(R10), X9
	SUBPD  X5, X9
	MOVUPD X9, 80(R11)
	MOVUPD 96(R10), X9
	SUBPD  X6, X9
	MOVUPD X9, 96(R11)
	MOVUPD 112(R10), X9
	SUBPD  X7, X9
	MOVUPD X9, 112(R11)
	MOVQ   BX, AX
	JMP    block

done:
	MOVQ AX, ret+72(FP)
	RET
