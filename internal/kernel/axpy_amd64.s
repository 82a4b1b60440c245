//go:build amd64

#include "textflag.h"

// func axpyQuadSSE(c0, c1, c2, c3, b []float32, s0, s1, s2, s3 float32)
//
// Four-row fused axpy: c_r[j] += s_r·b[j]. Each B vector is loaded once and
// reused across the four output rows; the vector ops are element-wise IEEE
// binary32 multiply/add, bit-identical to the scalar fallback. Lengths are
// taken from b (the caller guarantees the c rows match).
TEXT ·axpyQuadSSE(SB), NOSPLIT, $0-136
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

// func axpySSE(c, b []float32, s float32)
//
// One-row axpy, c[j] += s·b[j], eight then four lanes at a time with a
// scalar tail: the same element-wise IEEE multiply and add as the scalar
// loop, so the bits match it. Lengths are taken from b.
TEXT ·axpySSE(SB), NOSPLIT, $0-52
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

// func axpyQuadAVX2(c0, c1, c2, c3, b []float32, s0, s1, s2, s3 float32)
//
// axpyQuadSSE at eight lanes, then four, then one. Every product is
// b·s_r (b the first source) and every sum c + b·s_r (c the first source),
// as in the SSE form, so even a NaN result carries the same payload.
TEXT ·axpyQuadAVX2(SB), NOSPLIT, $0-136
	MOVQ c0_base+0(FP), DI
	MOVQ c1_base+24(FP), SI
	MOVQ c2_base+48(FP), DX
	MOVQ c3_base+72(FP), CX
	MOVQ b_base+96(FP), BX
	MOVQ b_len+104(FP), AX
	VBROADCASTSS s0+120(FP), Y4
	VBROADCASTSS s1+124(FP), Y5
	VBROADCASTSS s2+128(FP), Y6
	VBROADCASTSS s3+132(FP), Y7
	CMPQ AX, $8
	JLT  quadfour

quadeight:
	VMOVUPS (BX), Y0

	VMULPS  Y4, Y0, Y1
	VMOVUPS (DI), Y2
	VADDPS  Y1, Y2, Y2
	VMOVUPS Y2, (DI)

	VMULPS  Y5, Y0, Y1
	VMOVUPS (SI), Y3
	VADDPS  Y1, Y3, Y3
	VMOVUPS Y3, (SI)

	VMULPS  Y6, Y0, Y1
	VMOVUPS (DX), Y2
	VADDPS  Y1, Y2, Y2
	VMOVUPS Y2, (DX)

	VMULPS  Y7, Y0, Y1
	VMOVUPS (CX), Y3
	VADDPS  Y1, Y3, Y3
	VMOVUPS Y3, (CX)

	ADDQ $32, BX
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, CX
	SUBQ $8, AX
	CMPQ AX, $8
	JGE  quadeight

quadfour:
	CMPQ AX, $4
	JLT  quadtail
	VMOVUPS (BX), X0

	VMULPS  X4, X0, X1
	VMOVUPS (DI), X2
	VADDPS  X1, X2, X2
	VMOVUPS X2, (DI)

	VMULPS  X5, X0, X1
	VMOVUPS (SI), X2
	VADDPS  X1, X2, X2
	VMOVUPS X2, (SI)

	VMULPS  X6, X0, X1
	VMOVUPS (DX), X2
	VADDPS  X1, X2, X2
	VMOVUPS X2, (DX)

	VMULPS  X7, X0, X1
	VMOVUPS (CX), X2
	VADDPS  X1, X2, X2
	VMOVUPS X2, (CX)

	ADDQ $16, BX
	ADDQ $16, DI
	ADDQ $16, SI
	ADDQ $16, DX
	ADDQ $16, CX
	SUBQ $4, AX

quadtail:
	TESTQ AX, AX
	JEQ   quaddone

quadtailloop:
	VMOVSS (BX), X0

	VMULSS X4, X0, X1
	VMOVSS (DI), X2
	VADDSS X1, X2, X2
	VMOVSS X2, (DI)

	VMULSS X5, X0, X1
	VMOVSS (SI), X2
	VADDSS X1, X2, X2
	VMOVSS X2, (SI)

	VMULSS X6, X0, X1
	VMOVSS (DX), X2
	VADDSS X1, X2, X2
	VMOVSS X2, (DX)

	VMULSS X7, X0, X1
	VMOVSS (CX), X2
	VADDSS X1, X2, X2
	VMOVSS X2, (CX)

	ADDQ $4, BX
	ADDQ $4, DI
	ADDQ $4, SI
	ADDQ $4, DX
	ADDQ $4, CX
	DECQ AX
	JNE  quadtailloop

quaddone:
	VZEROUPPER
	RET

// func axpyAVX2(c, b []float32, s float32)
//
// axpySSE at sixteen, eight, four and then one lane at a time, with the
// same operand order (b·s, then c + b·s).
TEXT ·axpyAVX2(SB), NOSPLIT, $0-52
	MOVQ c_base+0(FP), DI
	MOVQ b_base+24(FP), SI
	MOVQ b_len+32(FP), AX
	VBROADCASTSS s+48(FP), Y4
	CMPQ AX, $16
	JLT  roweight

rowsixteen:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMULPS  Y4, Y0, Y0
	VMULPS  Y4, Y1, Y1
	VMOVUPS (DI), Y2
	VMOVUPS 32(DI), Y3
	VADDPS  Y0, Y2, Y2
	VADDPS  Y1, Y3, Y3
	VMOVUPS Y2, (DI)
	VMOVUPS Y3, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $16, AX
	CMPQ    AX, $16
	JGE     rowsixteen

roweight:
	CMPQ    AX, $8
	JLT     rowfour
	VMOVUPS (SI), Y0
	VMULPS  Y4, Y0, Y0
	VMOVUPS (DI), Y2
	VADDPS  Y0, Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, AX

rowfour:
	CMPQ    AX, $4
	JLT     rowtail
	VMOVUPS (SI), X0
	VMULPS  X4, X0, X0
	VMOVUPS (DI), X2
	VADDPS  X0, X2, X2
	VMOVUPS X2, (DI)
	ADDQ    $16, SI
	ADDQ    $16, DI
	SUBQ    $4, AX

rowtail:
	TESTQ AX, AX
	JEQ   rowdone

rowtailloop:
	VMOVSS (SI), X0
	VMULSS X4, X0, X0
	VMOVSS (DI), X2
	VADDSS X0, X2, X2
	VMOVSS X2, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   AX
	JNE    rowtailloop

rowdone:
	VZEROUPPER
	RET
