//go:build amd64

#include "textflag.h"

// func axpyQuad(c0, c1, c2, c3, b []float32, s0, s1, s2, s3 float32)
//
// Four-row fused axpy: c_r[j] += s_r·b[j]. Each B vector is loaded once and
// reused across the four output rows; the vector ops are element-wise IEEE
// binary32 multiply/add, bit-identical to the scalar fallback. Lengths are
// taken from b (the caller guarantees the c rows match).
TEXT ·axpyQuad(SB), NOSPLIT, $0-136
	MOVQ  c0_base+0(FP), DI
	MOVQ  c1_base+24(FP), SI
	MOVQ  c2_base+48(FP), DX
	MOVQ  c3_base+72(FP), CX
	MOVQ  b_base+96(FP), BX
	MOVQ  b_len+104(FP), AX
	MOVSS s0+120(FP), X4
	MOVSS s1+124(FP), X5
	MOVSS s2+128(FP), X6
	MOVSS s3+132(FP), X7
	SHUFPS $0x00, X4, X4 // broadcast each scale across the four lanes
	SHUFPS $0x00, X5, X5
	SHUFPS $0x00, X6, X6
	SHUFPS $0x00, X7, X7
	CMPQ  AX, $4
	JLT   tail

vec:
	MOVUPS (BX), X0      // four B values, reused by all four rows

	MOVAPS X0, X1
	MULPS  X4, X1
	MOVUPS (DI), X2
	ADDPS  X1, X2
	MOVUPS X2, (DI)

	MOVAPS X0, X1
	MULPS  X5, X1
	MOVUPS (SI), X2
	ADDPS  X1, X2
	MOVUPS X2, (SI)

	MOVAPS X0, X1
	MULPS  X6, X1
	MOVUPS (DX), X2
	ADDPS  X1, X2
	MOVUPS X2, (DX)

	MOVAPS X0, X1
	MULPS  X7, X1
	MOVUPS (CX), X2
	ADDPS  X1, X2
	MOVUPS X2, (CX)

	ADDQ  $16, BX
	ADDQ  $16, DI
	ADDQ  $16, SI
	ADDQ  $16, DX
	ADDQ  $16, CX
	SUBQ  $4, AX
	CMPQ  AX, $4
	JGE   vec

tail:
	TESTQ AX, AX
	JEQ   done

tailloop:
	MOVSS  (BX), X0

	MOVAPS X0, X1
	MULSS  X4, X1
	MOVSS  (DI), X2
	ADDSS  X1, X2
	MOVSS  X2, (DI)

	MOVAPS X0, X1
	MULSS  X5, X1
	MOVSS  (SI), X2
	ADDSS  X1, X2
	MOVSS  X2, (SI)

	MOVAPS X0, X1
	MULSS  X6, X1
	MOVSS  (DX), X2
	ADDSS  X1, X2
	MOVSS  X2, (DX)

	MOVAPS X0, X1
	MULSS  X7, X1
	MOVSS  (CX), X2
	ADDSS  X1, X2
	MOVSS  X2, (CX)

	ADDQ  $4, BX
	ADDQ  $4, DI
	ADDQ  $4, SI
	ADDQ  $4, DX
	ADDQ  $4, CX
	DECQ  AX
	JNE   tailloop

done:
	RET

// func axpy(c, b []float32, s float32)
//
// One-row axpy, c[j] += s·b[j], eight then four lanes at a time with a
// scalar tail: the same element-wise IEEE multiply and add as the scalar
// loop, so the bits match it. Lengths are taken from b.
TEXT ·axpy(SB), NOSPLIT, $0-52
	MOVQ  c_base+0(FP), DI
	MOVQ  b_base+24(FP), SI
	MOVQ  b_len+32(FP), AX
	MOVSS s+48(FP), X4
	SHUFPS $0x00, X4, X4
	CMPQ  AX, $8
	JLT   four

eight:
	MOVUPS (SI), X0
	MOVUPS 16(SI), X1
	MULPS  X4, X0
	MULPS  X4, X1
	MOVUPS (DI), X2
	MOVUPS 16(DI), X3
	ADDPS  X0, X2
	ADDPS  X1, X3
	MOVUPS X2, (DI)
	MOVUPS X3, 16(DI)
	ADDQ   $32, SI
	ADDQ   $32, DI
	SUBQ   $8, AX
	CMPQ   AX, $8
	JGE    eight

four:
	CMPQ   AX, $4
	JLT    tail
	MOVUPS (SI), X0
	MULPS  X4, X0
	MOVUPS (DI), X2
	ADDPS  X0, X2
	MOVUPS X2, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	SUBQ   $4, AX

tail:
	TESTQ AX, AX
	JEQ   done

tailloop:
	MOVSS (SI), X0
	MULSS X4, X0
	MOVSS (DI), X2
	ADDSS X0, X2
	MOVSS X2, (DI)
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  AX
	JNE   tailloop

done:
	RET
