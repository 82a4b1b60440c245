//go:build amd64

#include "textflag.h"

// func axpyQuadAVX2(c0, c1, c2, c3, b []float32, s0, s1, s2, s3 float32)
//
// Four-row fused axpy, c_r[j] += s_r·b[j], eight lanes at a time, then
// four, then one. Each B vector is loaded once and reused across the four
// output rows. Every product is b·s_r (b the first source) and every sum
// c + b·s_r (c the first source); the vector ops are element-wise IEEE
// binary32 multiply/add, bit-identical to the Go loop. Lengths are taken
// from b (the caller guarantees the c rows match).
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
// One-row axpy, c[j] += s·b[j], sixteen, eight, four and then one lane at a
// time, with axpyQuadAVX2's operand order (b·s, then c + b·s). Lengths are
// taken from b.
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
