//go:build amd64

#include "textflag.h"

// RoundHalf's AVX2 kernel, and the canonical reduce of both wires, which on
// the fp16 wire rounds its sources the same way as it reads them. The
// rounding is half.go's scalar HalfToFloat32(Float32ToHalf(x)) done lane by
// lane in float32 bits, with every branch turned into a mask select
// (ROUND16AVX below). The kernel matched the scalar converters on all 2^32
// float32 patterns.

// Each constant is one 32-bit lane repeated across 32 bytes, so a YMM
// operand reads all of it and an XMM one its first 16.
#define LANES(name, v) \
	DATA name<>+0(SB)/8, v; \
	DATA name<>+8(SB)/8, v; \
	DATA name<>+16(SB)/8, v; \
	DATA name<>+24(SB)/8, v; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

LANES(absmask, $0x7fffffff7fffffff)
LANES(half, $0x3f0000003f000000)
LANES(exp13, $0x0680000006800000)
LANES(maxfinite, $0x477fffff477fffff)
LANES(inf32, $0x7f8000007f800000)
LANES(quiet32, $0x0040000000400000)

// ROUND16AVX rounds the lanes of x through binary16 in place, eight on YMM
// registers and four on XMM ones, using u and t2..t4 as scratch, to the
// values the decode of the encode yields. With u = |x|'s bits and
// c = max(2^13·2^e(|x|), 0.5) — the exponent field of |x| plus 13, floored
// at 0.5 —
//   r = (|x| + c) − c
// rounds |x| to 11 significant bits (a normal half) or, for |x| < 2^-14,
// to a multiple of 2^-24 (a subnormal one; c is 0.5 there, the scalar
// path's own "+0.5" trick), both by the FPU's round-to-nearest-even, and
// both exact adds apart from that one rounding. Overflow is
// max(u, r) > maxfinite on signed lanes (u's own test catches Inf/NaN and
// huge |x|, whose c overflows), and NaN is u > Inf.
#define ROUND16AVX(x, u, t2, t3, t4) \
	VPAND     absmask<>(SB), x, u; \
	VPXOR     u, x, x; \
	VPAND     inf32<>(SB), u, t2; \
	VPADDD    exp13<>(SB), t2, t2; \
	VPMAXSD   half<>(SB), t2, t2; \
	VADDPS    t2, u, t3; \
	VSUBPS    t2, t3, t3; \
	VPMAXSD   t3, u, t4; \
	VPCMPGTD  maxfinite<>(SB), t4, t4; \
	VBLENDVPS t4, inf32<>(SB), t3, t3; \
	VPCMPGTD  inf32<>(SB), u, t4; \
	VPAND     quiet32<>(SB), t4, t4; \
	VPOR      t4, t3, t3; \
	VPOR      t3, x, x

// func roundHalfAVX2(x []float32) int
//
// x[i] = HalfToFloat32(Float32ToHalf(x[i])) in place over the leading
// multiple of eight elements; returns how many it wrote.
TEXT ·roundHalfAVX2(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	ANDQ $-8, CX
	MOVQ CX, ret+24(FP)
	SHRQ $3, CX
	JEQ  avxdone

avxloop:
	VMOVUPS (SI), Y0
	ROUND16AVX(Y0, Y1, Y2, Y3, Y4)
	VMOVUPS Y0, (SI)
	ADDQ    $32, SI
	DECQ    CX
	JNE     avxloop
	VZEROUPPER

avxdone:
	RET

// func canonicalAVX2(dst []float32, srcs [][]float32, scales []float64, half bool) int
//
// CanonicalAccumulate (half false) or CanonicalAccumulateHalf (half true)
// over the leading multiple of four coordinates, eight coordinates per pass
// — the source values in one YMM register, the eight float64 chains in two —
// and then one pass of four (values in XMM, chains in one YMM). With scales
// empty the pass is unweighted and seeded: the chain starts as srcs[0]'s
// value and adds each later source's. Otherwise it starts from +0 and adds
// x·scales[s] for every s. Under half each value is rounded through
// binary16 in register (ROUND16AVX) between the load and the widening. Per
// coordinate that is the seed or +0, then acc + x·w over s in order (acc
// and x the first operands), then one narrowing: canonicalBlocks'
// operations in its order, so the bits are its own (up to which payload two
// NaNs meeting keep) and no source is written. srcs is not empty. Returns
// the count written.
TEXT ·canonicalAVX2(SB), NOSPLIT, $0-88
	MOVQ  dst_base+0(FP), DI
	MOVQ  dst_len+8(FP), CX
	MOVQ  srcs_base+24(FP), SI
	MOVQ  srcs_len+32(FP), R8
	MOVQ  scales_base+48(FP), R9
	MOVQ  scales_len+56(FP), R12
	MOVBQZX half+72(FP), R13
	ANDQ  $-4, CX
	MOVQ  CX, ret+80(FP)
	SHLQ  $2, CX         // end, in bytes
	MOVQ  CX, R10
	ANDQ  $-32, R10      // end of the eight-coordinate passes, in bytes
	XORQ  BX, BX         // byte offset of the current coordinates
	CMPQ  BX, R10
	JGE   four

eight:
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	XORQ   DX, DX
	MOVQ   SI, R11

eightsource:
	MOVQ    (R11), AX
	VMOVUPS (AX)(BX*1), Y0
	TESTQ   R13, R13
	JEQ     eightwiden
	ROUND16AVX(Y0, Y1, Y2, Y3, Y4)

eightwiden:
	VCVTPS2PD    X0, Y2
	VEXTRACTF128 $1, Y0, X3
	VCVTPS2PD    X3, Y3
	TESTQ        R12, R12
	JNE          eightweight
	TESTQ        DX, DX
	JNE          eightadd
	VMOVAPD      Y2, Y8      // the seed
	VMOVAPD      Y3, Y9
	JMP          eightnext

eightweight:
	VBROADCASTSD (R9)(DX*8), Y7
	VMULPD       Y7, Y2, Y2
	VMULPD       Y7, Y3, Y3

eightadd:
	VADDPD Y2, Y8, Y8
	VADDPD Y3, Y9, Y9

eightnext:
	INCQ        DX
	ADDQ        $24, R11
	CMPQ        DX, R8
	JLT         eightsource
	VCVTPD2PSY  Y8, X8
	VCVTPD2PSY  Y9, X9
	VINSERTF128 $1, X9, Y8, Y8
	VMOVUPS     Y8, (DI)(BX*1)
	ADDQ        $32, BX
	CMPQ        BX, R10
	JLT         eight

four:
	CMPQ   BX, CX
	JGE    done
	VXORPD Y8, Y8, Y8
	XORQ   DX, DX
	MOVQ   SI, R11

foursource:
	MOVQ    (R11), AX
	VMOVUPS (AX)(BX*1), X0
	TESTQ   R13, R13
	JEQ     fourwiden
	ROUND16AVX(X0, X1, X2, X3, X4)

fourwiden:
	VCVTPS2PD X0, Y2
	TESTQ     R12, R12
	JNE       fourweight
	TESTQ     DX, DX
	JNE       fouradd
	VMOVAPD   Y2, Y8         // the seed
	JMP       fournext

fourweight:
	VBROADCASTSD (R9)(DX*8), Y7
	VMULPD       Y7, Y2, Y2

fouradd:
	VADDPD Y2, Y8, Y8

fournext:
	INCQ       DX
	ADDQ       $24, R11
	CMPQ       DX, R8
	JLT        foursource
	VCVTPD2PSY Y8, X8
	VMOVUPS    X8, (DI)(BX*1)

done:
	VZEROUPPER
	RET
