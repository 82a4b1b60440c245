//go:build amd64

#include "textflag.h"

// func reluAVX2(dst, src []float32) int
//
// dst[i] = max(src[i], +0) over the leading multiple of eight elements.
// VMAXPS returns its second source (+0) unless the first (x) is greater, so
// NaN and −0 give +0, as the scalar x > 0 ? x : 0 does.
TEXT ·reluAVX2(SB), NOSPLIT, $0-56
	MOVQ   dst_base+0(FP), DI
	MOVQ   src_base+24(FP), SI
	MOVQ   src_len+32(FP), CX
	ANDQ   $-8, CX
	MOVQ   CX, ret+48(FP)
	SHRQ   $3, CX
	JEQ    reludone
	VXORPS Y1, Y1, Y1

reluloop:
	VMOVUPS (SI), Y0
	VMAXPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNE     reluloop
	VZEROUPPER

reludone:
	RET

// func reluBackwardAVX2(dx, y, dy []float32) int
//
// dx[i] = (0 < y[i]) & dy[i] over the leading multiple of eight elements:
// the ordered less-than is all ones where 0 < y and all zeros where it is
// not (NaN included), so the AND passes dy's bits or writes +0.
TEXT ·reluBackwardAVX2(SB), NOSPLIT, $0-80
	MOVQ   dx_base+0(FP), DI
	MOVQ   y_base+24(FP), SI
	MOVQ   y_len+32(FP), CX
	MOVQ   dy_base+48(FP), DX
	ANDQ   $-8, CX
	MOVQ   CX, ret+72(FP)
	SHRQ   $3, CX
	JEQ    relubdone
	VXORPS Y2, Y2, Y2

relubloop:
	VCMPPS  $1, (SI), Y2, Y1
	VANDPS  (DX), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	DECQ    CX
	JNE     relubloop
	VZEROUPPER

relubdone:
	RET
