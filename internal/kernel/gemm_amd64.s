//go:build amd64

#include "textflag.h"

// func gemmTileAVX2(c, sc, bp []float32, n, cols int)
//
// The register tile of gemmRowBlock: for each 16-column strip of the first
// cols columns of the four C rows (row stride n), it loads the 4×16 strip
// into eight YMM accumulators, adds sc[4·l+r]·B[l][strip] into row r for
// l = 0..kc-1 (kc = len(sc)/4, B's row stride n), and stores the strip
// once. Each product is b·s (b the first source) and each sum c + b·s
// (c the first source), the operand order of axpyQuadAVX2; no FMA, so every
// element sees the rounded multiply, then the rounded add, in ascending l,
// and the bits are axpyQuad's. cols is a positive multiple of 16 and kc is
// at least 1. Y15 (X15 is the ABI's zero register) is not touched.
TEXT ·gemmTileAVX2(SB), NOSPLIT, $0-88
	MOVQ c_base+0(FP), DI
	MOVQ sc_base+24(FP), SI
	MOVQ sc_len+32(FP), R8
	MOVQ bp_base+48(FP), BX
	MOVQ n+72(FP), DX
	MOVQ cols+80(FP), CX
	SHRQ $2, R8              // kc
	SHLQ $2, DX              // row stride in bytes
	LEAQ (DI)(DX*1), R9      // C rows 1..3
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11

strip:
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS (R9), Y2
	VMOVUPS 32(R9), Y3
	VMOVUPS (R10), Y4
	VMOVUPS 32(R10), Y5
	VMOVUPS (R11), Y6
	VMOVUPS 32(R11), Y7
	MOVQ    SI, R12          // scales of step l
	MOVQ    BX, R13          // B[l][strip]
	MOVQ    R8, AX

step:
	VMOVUPS (R13), Y8
	VMOVUPS 32(R13), Y9

	VBROADCASTSS (R12), Y10
	VMULPS       Y10, Y8, Y11
	VMULPS       Y10, Y9, Y12
	VADDPS       Y11, Y0, Y0
	VADDPS       Y12, Y1, Y1

	VBROADCASTSS 4(R12), Y13
	VMULPS       Y13, Y8, Y14
	VMULPS       Y13, Y9, Y10
	VADDPS       Y14, Y2, Y2
	VADDPS       Y10, Y3, Y3

	VBROADCASTSS 8(R12), Y11
	VMULPS       Y11, Y8, Y12
	VMULPS       Y11, Y9, Y13
	VADDPS       Y12, Y4, Y4
	VADDPS       Y13, Y5, Y5

	VBROADCASTSS 12(R12), Y14
	VMULPS       Y14, Y8, Y10
	VMULPS       Y14, Y9, Y11
	VADDPS       Y10, Y6, Y6
	VADDPS       Y11, Y7, Y7

	ADDQ $16, R12
	ADDQ DX, R13
	DECQ AX
	JNE  step

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (R9)
	VMOVUPS Y3, 32(R9)
	VMOVUPS Y4, (R10)
	VMOVUPS Y5, 32(R10)
	VMOVUPS Y6, (R11)
	VMOVUPS Y7, 32(R11)
	ADDQ    $64, DI
	ADDQ    $64, R9
	ADDQ    $64, R10
	ADDQ    $64, R11
	ADDQ    $64, BX
	SUBQ    $16, CX
	JNE     strip

	VZEROUPPER
	RET
