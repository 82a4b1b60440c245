//go:build amd64

#include "textflag.h"

// func canonicalVec(dst []float32, srcs [][]float32, scales []float64) int
//
// CanonicalAccumulate over the leading multiple of four coordinates, in one
// pass: for each four coordinates, two SSE2 registers hold their float64
// accumulators while the sources stream past in order — seeded from srcs[0]
// and unweighted when scales is empty, else from +0 adding scales[s]·x.
// CVTPS2PD/MULPD/ADDPD/CVTPD2PS are the packed forms of the scalar
// conversions, multiplies and adds of the Go loop, and the order over s is
// the same, so every coordinate's bits match it. Returns the count written.
TEXT ·canonicalVec(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ srcs_base+24(FP), SI
	MOVQ srcs_len+32(FP), R8
	MOVQ scales_base+48(FP), R9
	MOVQ scales_len+56(FP), R10
	ANDQ $-4, CX
	MOVQ CX, ret+72(FP)
	SHLQ $2, CX          // end, in bytes
	XORQ BX, BX          // byte offset of the current four coordinates
	CMPQ BX, CX
	JGE  done

quad:
	TESTQ R10, R10
	JNE   scaled
	MOVQ     (SI), AX    // srcs[0] seeds the chain
	CVTPS2PD (AX)(BX*1), X0
	CVTPS2PD 8(AX)(BX*1), X1
	MOVQ     $1, DX
	LEAQ     24(SI), R11

plain:
	CMPQ     DX, R8
	JGE      store
	MOVQ     (R11), AX
	CVTPS2PD (AX)(BX*1), X2
	CVTPS2PD 8(AX)(BX*1), X3
	ADDPD    X2, X0
	ADDPD    X3, X1
	INCQ     DX
	ADDQ     $24, R11
	JMP      plain

scaled:
	XORPD X0, X0
	XORPD X1, X1
	XORQ  DX, DX
	MOVQ  SI, R11

weighted:
	CMPQ     DX, R8
	JGE      store
	MOVQ     (R11), AX
	MOVSD    (R9)(DX*8), X4
	UNPCKLPD X4, X4
	CVTPS2PD (AX)(BX*1), X2
	CVTPS2PD 8(AX)(BX*1), X3
	MULPD    X4, X2
	MULPD    X4, X3
	ADDPD    X2, X0
	ADDPD    X3, X1
	INCQ     DX
	ADDQ     $24, R11
	JMP      weighted

store:
	CVTPD2PS X0, X0
	CVTPD2PS X1, X1
	MOVLHPS  X1, X0
	MOVUPS   X0, (DI)(BX*1)
	ADDQ     $16, BX
	CMPQ     BX, CX
	JLT      quad

done:
	RET
