//go:build amd64

#include "textflag.h"

// The momentum update in packed form. The scalar loop compiles to
//   t = w·λ; grad = g + t          (decay only)
//   a = v·m; b = grad·r; v = a + b
//   w = w − v
// (on amd64 without -race, which commutes some of the adds) and this
// kernel issues the same operations with the same first operands, so when
// two NaNs meet the lane keeps the one the scalar loop keeps.

// func momentumAVX2(v, w, g []float32, m, r, lambda float32, decay bool) int
//
// Momentum over the leading multiple of four elements, eight lanes at a
// time and then one pass of four; returns how many it updated.
TEXT ·momentumAVX2(SB), NOSPLIT, $0-96
	MOVQ         v_base+0(FP), DI
	MOVQ         w_base+24(FP), SI
	MOVQ         g_base+48(FP), DX
	MOVQ         v_len+8(FP), CX
	VBROADCASTSS m+72(FP), Y0
	VBROADCASTSS r+76(FP), Y1
	VBROADCASTSS lambda+80(FP), Y2
	MOVBLZX      decay+84(FP), R8
	ANDQ         $-4, CX
	MOVQ         CX, ret+88(FP)
	SHLQ         $2, CX          // end, in bytes
	MOVQ         CX, R9
	ANDQ         $-32, R9        // end of the eight-lane passes, in bytes
	XORQ         BX, BX
	CMPQ         BX, R9
	JGE          avxfour

avxloop:
	VMOVUPS (DI)(BX*1), Y3       // v
	VMOVUPS (SI)(BX*1), Y4       // w
	VMOVUPS (DX)(BX*1), Y5       // g
	TESTQ   R8, R8
	JEQ     avxnodecay
	VMULPS  Y2, Y4, Y6           // w·λ
	VADDPS  Y6, Y5, Y5           // g + w·λ

avxnodecay:
	VMULPS  Y0, Y3, Y3           // v·m
	VMULPS  Y1, Y5, Y5           // grad·r
	VADDPS  Y5, Y3, Y3           // v·m + grad·r
	VSUBPS  Y3, Y4, Y4           // w − v
	VMOVUPS Y3, (DI)(BX*1)
	VMOVUPS Y4, (SI)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, R9
	JLT     avxloop

avxfour:
	CMPQ    BX, CX
	JGE     avxdone
	VMOVUPS (DI)(BX*1), X3
	VMOVUPS (SI)(BX*1), X4
	VMOVUPS (DX)(BX*1), X5
	TESTQ   R8, R8
	JEQ     avxfournodecay
	VMULPS  X2, X4, X6
	VADDPS  X6, X5, X5

avxfournodecay:
	VMULPS  X0, X3, X3
	VMULPS  X1, X5, X5
	VADDPS  X5, X3, X3
	VSUBPS  X3, X4, X4
	VMOVUPS X3, (DI)(BX*1)
	VMOVUPS X4, (SI)(BX*1)

avxdone:
	VZEROUPPER
	RET
