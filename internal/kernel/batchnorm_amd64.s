//go:build amd64

#include "textflag.h"

// BatchNorm's per-element passes and the pairwise tree's one-pass leaves.
// No kernel here uses FMA: each issues the rounded subtracts, multiplies
// and adds of its Go twin, in the twin's order and with the operand the
// compiled Go loop puts first as the first source, so the bits are the
// twin's, NaN payloads included (x86 returns the first source when two
// NaNs meet). FuzzBatchNorm pins the two passes' payloads; the leaves'
// tests hold their bits on data without NaN.

// func normalizeAVX2(y, xhat, x []float32, mu, inv, gamma, beta float32) int
//
// y[i] = (((x[i] − μ)·inv)·γ) + β over the leading multiple of eight
// elements, and xhat[i] = (x[i] − μ)·inv from the same register unless
// xhat is nil; returns how many it wrote. The element is the first source
// of every operation and the broadcast constant the second.
TEXT ·normalizeAVX2(SB), NOSPLIT, $0-96
	MOVQ         y_base+0(FP), DI
	MOVQ         xhat_base+24(FP), R8
	MOVQ         x_base+48(FP), SI
	MOVQ         x_len+56(FP), CX
	VBROADCASTSS mu+72(FP), Y0
	VBROADCASTSS inv+76(FP), Y1
	VBROADCASTSS gamma+80(FP), Y2
	VBROADCASTSS beta+84(FP), Y3
	ANDQ         $-8, CX
	MOVQ         CX, ret+88(FP)
	SHLQ         $2, CX          // end, in bytes
	XORQ         BX, BX
	CMPQ         BX, CX
	JGE          normdone
	TESTQ        R8, R8
	JEQ          evalloop

trainloop:
	VMOVUPS (SI)(BX*1), Y4
	VSUBPS  Y0, Y4, Y4           // x − μ
	VMULPS  Y1, Y4, Y4           // x̂ = (x − μ)·inv
	VMOVUPS Y4, (R8)(BX*1)
	VMULPS  Y2, Y4, Y4           // x̂·γ
	VADDPS  Y3, Y4, Y4           // x̂·γ + β
	VMOVUPS Y4, (DI)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, CX
	JLT     trainloop
	JMP     normdone

evalloop:
	VMOVUPS (SI)(BX*1), Y4
	VSUBPS  Y0, Y4, Y4
	VMULPS  Y1, Y4, Y4
	VMULPS  Y2, Y4, Y4
	VADDPS  Y3, Y4, Y4
	VMOVUPS Y4, (DI)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, CX
	JLT     evalloop

normdone:
	VZEROUPPER
	RET

// func normalizeGradAVX2(dx, dy, xhat []float32, gi, meanDy, meanDyXhat float32) int
//
// dx[i] = ((dy[i] − meanDy) − x̂[i]·meanDyXhat)·gi over the leading multiple
// of eight elements; returns how many it wrote. The first source of each
// subtract is dy's side, of the first multiply x̂ and of the last the
// difference.
TEXT ·normalizeGradAVX2(SB), NOSPLIT, $0-96
	MOVQ         dx_base+0(FP), DI
	MOVQ         dy_base+24(FP), SI
	MOVQ         xhat_base+48(FP), DX
	MOVQ         dx_len+8(FP), CX
	VBROADCASTSS gi+72(FP), Y0
	VBROADCASTSS meanDy+76(FP), Y1
	VBROADCASTSS meanDyXhat+80(FP), Y2
	ANDQ         $-8, CX
	MOVQ         CX, ret+88(FP)
	SHLQ         $2, CX          // end, in bytes
	XORQ         BX, BX
	CMPQ         BX, CX
	JGE          graddone

gradloop:
	VMOVUPS (SI)(BX*1), Y4
	VSUBPS  Y1, Y4, Y4           // dy − meanDy
	VMOVUPS (DX)(BX*1), Y5
	VMULPS  Y2, Y5, Y5           // x̂·meanDyXhat
	VSUBPS  Y5, Y4, Y4           // (dy − meanDy) − x̂·meanDyXhat
	VMULPS  Y0, Y4, Y4           // ·gi
	VMOVUPS Y4, (DI)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, CX
	JLT     gradloop

graddone:
	VZEROUPPER
	RET

// JOIN leaves (a0+a1)+(a2+a3) of A's lanes in A's lane 0, through T: the
// lane-wise add pairs a0 with a1 and a2 with a3, a0 and a2 the first
// sources, and the closing add puts a0+a1 first.
#define JOIN(A, T) \
	VMOVSHDUP A, T; \
	VADDPS    T, A, A; \
	VMOVHLPS  A, A, T; \
	VADDSS    T, A, A

// SQ4 adds the four elements at p into the sums S, lane r taking element
// r, and their squares into Q, the accumulators the first sources; T and U
// are scratch. SQ1 adds the one element at p into lane 0 alone: the
// scalar adds keep lanes 1–3.
#define SQ4(p, S, Q, T, U) \
	VMOVUPS (p), T; \
	VMULPS  T, T, U; \
	VADDPS  T, S, S; \
	VADDPS  U, Q, Q

#define SQ1(p, S, Q, T, U) \
	VMOVSS (p), T; \
	VMULSS T, T, U; \
	VADDSS T, S, S; \
	VADDSS U, Q, Q

// DOT4 and DOT1 are SQ4 and SQ1 with the products x·y of the elements at
// px and py, y the first source as in the compiled loop, into D.
#define DOT4(px, py, S, D, T, U) \
	VMOVUPS (px), T; \
	VMOVUPS (py), U; \
	VMULPS  T, U, U; \
	VADDPS  T, S, S; \
	VADDPS  U, D, D

#define DOT1(px, py, S, D, T, U) \
	VMOVSS (px), T; \
	VMOVSS (py), U; \
	VMULSS T, U, U; \
	VADDSS T, S, S; \
	VADDSS U, D, D

// func sumSqLeavesAVX2(x []float32, a int) (ls, lq, rs, rq float32)
//
// sumSqLeaf of the two leaves x[:a] and x[a:] side by side, a ≤ blockN and
// len(x) − a ≤ a (an empty right leaf gives +0, +0). Lane r of X0 and X1
// is s_r and q_r of the left leaf, of X2 and X3 the right leaf's, each
// summing the elements (squares) at i ≡ r mod 4 of its leaf in ascending
// order; the loop runs both leaves while the right one has four elements
// left, so four chains are in flight, then the left leaf alone. Each tail
// goes into lane 0 of its leaf and JOIN finishes. Only XMM registers are
// written, so no VZEROUPPER is needed.
TEXT ·sumSqLeavesAVX2(SB), NOSPLIT, $0-48
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), BX
	MOVQ   a+24(FP), AX
	SUBQ   AX, BX                // right length
	LEAQ   (SI)(AX*4), DI        // right leaf
	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	MOVQ   BX, DX
	SHRQ   $2, DX                // groups of four in both leaves
	MOVQ   AX, CX
	SHRQ   $2, CX
	SUBQ   DX, CX                // groups of four in the left leaf alone
	TESTQ  DX, DX
	JEQ    sqleft

sqboth:
	SQ4(SI, X0, X1, X4, X5)
	SQ4(DI, X2, X3, X6, X7)
	ADDQ $16, SI
	ADDQ $16, DI
	DECQ DX
	JNE  sqboth

sqleft:
	TESTQ CX, CX
	JEQ   sqlefttail

sqleftloop:
	SQ4(SI, X0, X1, X4, X5)
	ADDQ $16, SI
	DECQ CX
	JNE  sqleftloop

sqlefttail:
	ANDQ $3, AX
	JEQ  sqrighttail

sqlefttailloop:
	SQ1(SI, X0, X1, X4, X5)
	ADDQ $4, SI
	DECQ AX
	JNE  sqlefttailloop

sqrighttail:
	ANDQ $3, BX
	JEQ  sqjoin

sqrighttailloop:
	SQ1(DI, X2, X3, X6, X7)
	ADDQ $4, DI
	DECQ BX
	JNE  sqrighttailloop

sqjoin:
	JOIN(X0, X4)
	JOIN(X1, X5)
	JOIN(X2, X6)
	JOIN(X3, X7)
	VMOVSS X0, ls+32(FP)
	VMOVSS X1, lq+36(FP)
	VMOVSS X2, rs+40(FP)
	VMOVSS X3, rq+44(FP)
	RET

// func sumDotLeavesAVX2(x, y []float32, a int) (ls, ld, rs, rd float32)
//
// sumDotLeaf of the leaves x[:a], y[:a] and x[a:], y[a:] side by side,
// sumSqLeavesAVX2's shape with the products x[i]·y[i]. y has len(x)
// elements.
TEXT ·sumDotLeavesAVX2(SB), NOSPLIT, $0-72
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), BX
	MOVQ   y_base+24(FP), R8
	MOVQ   a+48(FP), AX
	SUBQ   AX, BX
	LEAQ   (SI)(AX*4), DI
	LEAQ   (R8)(AX*4), R9
	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	MOVQ   BX, DX
	SHRQ   $2, DX
	MOVQ   AX, CX
	SHRQ   $2, CX
	SUBQ   DX, CX
	TESTQ  DX, DX
	JEQ    dotleft

dotboth:
	DOT4(SI, R8, X0, X1, X4, X5)
	DOT4(DI, R9, X2, X3, X6, X7)
	ADDQ $16, SI
	ADDQ $16, R8
	ADDQ $16, DI
	ADDQ $16, R9
	DECQ DX
	JNE  dotboth

dotleft:
	TESTQ CX, CX
	JEQ   dotlefttail

dotleftloop:
	DOT4(SI, R8, X0, X1, X4, X5)
	ADDQ $16, SI
	ADDQ $16, R8
	DECQ CX
	JNE  dotleftloop

dotlefttail:
	ANDQ $3, AX
	JEQ  dotrighttail

dotlefttailloop:
	DOT1(SI, R8, X0, X1, X4, X5)
	ADDQ $4, SI
	ADDQ $4, R8
	DECQ AX
	JNE  dotlefttailloop

dotrighttail:
	ANDQ $3, BX
	JEQ  dotjoin

dotrighttailloop:
	DOT1(DI, R9, X2, X3, X6, X7)
	ADDQ $4, DI
	ADDQ $4, R9
	DECQ BX
	JNE  dotrighttailloop

dotjoin:
	JOIN(X0, X4)
	JOIN(X1, X5)
	JOIN(X2, X6)
	JOIN(X3, X7)
	VMOVSS X0, ls+56(FP)
	VMOVSS X1, ld+60(FP)
	VMOVSS X2, rs+64(FP)
	VMOVSS X3, rd+68(FP)
	RET
