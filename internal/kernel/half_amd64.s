//go:build amd64

#include "textflag.h"

// SSE2 RoundHalf: the lane-wise transcription of half.go's scalar
// HalfToFloat32(Float32ToHalf(x)), kept in float32 bits, with every branch
// turned into a mask select. The kernel handles the leading multiple of four
// elements and returns how many it wrote; the Go caller finishes the tail.
//
// Per lane, with u = |x|'s bits:
//   normal  n = (u + 0xfff + ((u>>13)&1)) &^ 0x1fff   (RTNE to 10 mantissa bits)
//   small   s = (|x| + 0.5) - 0.5                      (RTNE to a multiple of 2^-24)
//   u < 2^-14                → the small lane
//   u or n ≥ 2^16            → ±Inf (u's own test catches Inf/NaN, whose n wraps)
//   u > Inf                  → the quiet NaN
// The float add/sub of the small lane is the scalar path's own "+0.5" trick,
// so its rounding is the FPU's round-to-nearest-even in both.

DATA absmask<>+0(SB)/8, $0x7fffffff7fffffff
DATA absmask<>+8(SB)/8, $0x7fffffff7fffffff
GLOBL absmask<>(SB), RODATA|NOPTR, $16

DATA roundbias<>+0(SB)/8, $0x00000fff00000fff
DATA roundbias<>+8(SB)/8, $0x00000fff00000fff
GLOBL roundbias<>(SB), RODATA|NOPTR, $16

DATA keepmask<>+0(SB)/8, $0xffffe000ffffe000
DATA keepmask<>+8(SB)/8, $0xffffe000ffffe000
GLOBL keepmask<>(SB), RODATA|NOPTR, $16

DATA half<>+0(SB)/8, $0x3f0000003f000000
DATA half<>+8(SB)/8, $0x3f0000003f000000
GLOBL half<>(SB), RODATA|NOPTR, $16

DATA minnormal<>+0(SB)/8, $0x3880000038800000
DATA minnormal<>+8(SB)/8, $0x3880000038800000
GLOBL minnormal<>(SB), RODATA|NOPTR, $16

DATA maxfinite<>+0(SB)/8, $0x477fffff477fffff
DATA maxfinite<>+8(SB)/8, $0x477fffff477fffff
GLOBL maxfinite<>(SB), RODATA|NOPTR, $16

DATA inf32<>+0(SB)/8, $0x7f8000007f800000
DATA inf32<>+8(SB)/8, $0x7f8000007f800000
GLOBL inf32<>(SB), RODATA|NOPTR, $16

DATA quiet32<>+0(SB)/8, $0x0040000000400000
DATA quiet32<>+8(SB)/8, $0x0040000000400000
GLOBL quiet32<>(SB), RODATA|NOPTR, $16

// func roundHalfVec(x []float32) int
//
// x[i] = HalfToFloat32(Float32ToHalf(x[i])) in place, in float32 bits:
// normal lanes keep n, small lanes s, overflow becomes ±Inf and NaN the
// quiet NaN with its sign — the values the decode of the encode yields.
TEXT ·roundHalfVec(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	ANDQ $-4, CX
	MOVQ CX, ret+24(FP)
	SHRQ $2, CX
	JEQ  rounddone

roundloop:
	MOVUPS  (SI), X0
	MOVOU   X0, X1
	PAND    absmask<>(SB), X1
	PXOR    X1, X0
	MOVOU   X1, X2
	PSLLL   $18, X2
	PSRLL   $31, X2
	PADDL   X1, X2
	PADDL   roundbias<>(SB), X2
	PAND    keepmask<>(SB), X2
	MOVOU   X1, X3
	ADDPS   half<>(SB), X3
	SUBPS   half<>(SB), X3
	MOVOU   minnormal<>(SB), X4
	PCMPGTL X1, X4
	PAND    X4, X3
	PANDN   X2, X4
	POR     X3, X4
	MOVOU   X1, X5
	PCMPGTL maxfinite<>(SB), X5
	MOVOU   X4, X6
	PCMPGTL maxfinite<>(SB), X6
	POR     X6, X5
	MOVOU   X5, X6
	PAND    inf32<>(SB), X6
	PANDN   X4, X5
	POR     X6, X5
	MOVOU   X1, X6
	PCMPGTL inf32<>(SB), X6
	PAND    quiet32<>(SB), X6
	POR     X6, X5
	POR     X0, X5
	MOVUPS  X5, (SI)
	ADDQ    $16, SI
	DECQ    CX
	JNE     roundloop

rounddone:
	RET
