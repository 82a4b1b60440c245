//go:build amd64

#include "textflag.h"

// func dotQuad(a, b0, b1, b2, b3 []float32) (s0, s1, s2, s3 float32)
//
// Four pairwiseDot base cases sharing one a: column c's XMM accumulator
// holds pairwiseDot's four partial sums in its lanes (lane r sums the
// products at i ≡ r mod 4), the tail goes into lane 0, and the finish is
// (lane0+lane1)+(lane2+lane3). MULPS/ADDPS/MULSS/ADDSS are element-wise
// IEEE binary32 operations, so each result is bit-identical to the scalar
// twin in dot_generic.go. Lengths are taken from a (the caller guarantees
// the b columns match).
TEXT ·dotQuad(SB), NOSPLIT, $0-136
	MOVQ  a_base+0(FP), SI
	MOVQ  a_len+8(FP), CX
	MOVQ  b0_base+24(FP), R8
	MOVQ  b1_base+48(FP), R9
	MOVQ  b2_base+72(FP), R10
	MOVQ  b3_base+96(FP), R11
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	CMPQ  CX, $4
	JLT   tail

vec:
	MOVUPS (SI), X4      // four a values, shared by all four columns

	MOVUPS (R8), X5
	MULPS  X4, X5
	ADDPS  X5, X0

	MOVUPS (R9), X5
	MULPS  X4, X5
	ADDPS  X5, X1

	MOVUPS (R10), X5
	MULPS  X4, X5
	ADDPS  X5, X2

	MOVUPS (R11), X5
	MULPS  X4, X5
	ADDPS  X5, X3

	ADDQ  $16, SI
	ADDQ  $16, R8
	ADDQ  $16, R9
	ADDQ  $16, R10
	ADDQ  $16, R11
	SUBQ  $4, CX
	CMPQ  CX, $4
	JGE   vec

tail:
	TESTQ CX, CX
	JEQ   finish

tailloop:
	MOVSS (SI), X4

	MOVSS (R8), X5
	MULSS X4, X5
	ADDSS X5, X0

	MOVSS (R9), X5
	MULSS X4, X5
	ADDSS X5, X1

	MOVSS (R10), X5
	MULSS X4, X5
	ADDSS X5, X2

	MOVSS (R11), X5
	MULSS X4, X5
	ADDSS X5, X3

	ADDQ  $4, SI
	ADDQ  $4, R8
	ADDQ  $4, R9
	ADDQ  $4, R10
	ADDQ  $4, R11
	DECQ  CX
	JNE   tailloop

finish:
	// Per accumulator [l0 l1 l2 l3]: add its lane-swapped copy
	// [l1 l0 l3 l2] to get l0+l1 in lane 0 and l2+l3 in lane 2, then add
	// lane 2 into lane 0.
	MOVAPS  X0, X5
	SHUFPS  $0xB1, X5, X5
	ADDPS   X5, X0
	MOVHLPS X0, X5
	ADDSS   X5, X0
	MOVSS   X0, s0+120(FP)

	MOVAPS  X1, X5
	SHUFPS  $0xB1, X5, X5
	ADDPS   X5, X1
	MOVHLPS X1, X5
	ADDSS   X5, X1
	MOVSS   X1, s1+124(FP)

	MOVAPS  X2, X5
	SHUFPS  $0xB1, X5, X5
	ADDPS   X5, X2
	MOVHLPS X2, X5
	ADDSS   X5, X2
	MOVSS   X2, s2+128(FP)

	MOVAPS  X3, X5
	SHUFPS  $0xB1, X5, X5
	ADDPS   X5, X3
	MOVHLPS X3, X5
	ADDSS   X5, X3
	MOVSS   X3, s3+132(FP)
	RET
