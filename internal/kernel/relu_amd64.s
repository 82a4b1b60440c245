//go:build amd64

#include "textflag.h"

// func reluVec(dst, src []float32) int
//
// dst[i] = MAXPS(src[i], +0) over the leading multiple of four elements.
// MAXPS returns its source operand (+0) unless the destination (x) is
// greater, so NaN and −0 give +0, as the scalar x > 0 ? x : 0 does.
TEXT ·reluVec(SB), NOSPLIT, $0-56
	MOVQ  dst_base+0(FP), DI
	MOVQ  src_base+24(FP), SI
	MOVQ  src_len+32(FP), CX
	ANDQ  $-4, CX
	MOVQ  CX, ret+48(FP)
	SHRQ  $2, CX
	JEQ   reludone
	XORPS X1, X1

reluloop:
	MOVUPS (SI), X0
	MAXPS  X1, X0
	MOVUPS X0, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	DECQ   CX
	JNE    reluloop

reludone:
	RET

// func reluBackwardVec(dx, y, dy []float32) int
//
// dx[i] = (0 < y[i]) & dy[i] over the leading multiple of four elements:
// CMPPS's ordered less-than is all ones where 0 < y and all zeros where
// it is not (NaN included), so the AND passes dy's bits or writes +0.
TEXT ·reluBackwardVec(SB), NOSPLIT, $0-80
	MOVQ  dx_base+0(FP), DI
	MOVQ  y_base+24(FP), SI
	MOVQ  y_len+32(FP), CX
	MOVQ  dy_base+48(FP), DX
	ANDQ  $-4, CX
	MOVQ  CX, ret+72(FP)
	SHRQ  $2, CX
	JEQ   relubdone
	XORPS X2, X2

relubloop:
	MOVUPS (SI), X0
	MOVAPS X2, X1
	CMPPS  X0, X1, $1
	MOVUPS (DX), X0
	ANDPS  X0, X1
	MOVUPS X1, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DX
	ADDQ   $16, DI
	DECQ   CX
	JNE    relubloop

relubdone:
	RET
