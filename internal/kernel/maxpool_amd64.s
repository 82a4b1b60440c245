//go:build amd64

#include "textflag.h"

// MaxPool2x2's AVX2 kernel: eight outputs of 2×2/2 windows per tile. SI
// and R9 point at a row's two input rows, DI and R8 at its outputs and
// argmax, DX is the tile's first output in the row, CX the row's length n,
// BX the input width w and R10 the argmax base of the row's first tap.

DATA neginf<>+0(SB)/4, $0xff800000
GLOBL neginf<>(SB), RODATA|NOPTR, $4

// The even taps of a tile's sixteen floats, as VSHUFPS leaves them before
// the closing VPERMQ: outputs 0, 1, 4, 5, 2, 3, 6, 7.
DATA tapoffs<>+0(SB)/4, $0
DATA tapoffs<>+4(SB)/4, $2
DATA tapoffs<>+8(SB)/4, $8
DATA tapoffs<>+12(SB)/4, $10
DATA tapoffs<>+16(SB)/4, $4
DATA tapoffs<>+20(SB)/4, $6
DATA tapoffs<>+24(SB)/4, $12
DATA tapoffs<>+28(SB)/4, $14
GLOBL tapoffs<>(SB), RODATA|NOPTR, $32

// Sixteen all-ones lanes, then sixteen zero lanes: the eight lanes from
// masktab+64−4k on are a mask of the first k.
DATA masktab<>+0(SB)/8, $-1
DATA masktab<>+8(SB)/8, $-1
DATA masktab<>+16(SB)/8, $-1
DATA masktab<>+24(SB)/8, $-1
DATA masktab<>+32(SB)/8, $-1
DATA masktab<>+40(SB)/8, $-1
DATA masktab<>+48(SB)/8, $-1
DATA masktab<>+56(SB)/8, $-1
DATA masktab<>+64(SB)/8, $0
DATA masktab<>+72(SB)/8, $0
DATA masktab<>+80(SB)/8, $0
DATA masktab<>+88(SB)/8, $0
DATA masktab<>+96(SB)/8, $0
DATA masktab<>+104(SB)/8, $0
DATA masktab<>+112(SB)/8, $0
DATA masktab<>+120(SB)/8, $0
GLOBL masktab<>(SB), RODATA|NOPTR, $128

// DEINT splits the sixteen floats in a, b into even taps e and odd taps o,
// in each 128-bit lane: e = a0 a2 b0 b2, o = a1 a3 b1 b3.
#define DEINT(a, b, e, o) \
	VSHUFPS $0x88, b, a, e; \
	VSHUFPS $0xDD, b, a, o

// LOADTILE loads the tile at output DX: the top input row's taps into Y2
// (even) and Y3 (odd), the bottom row's into Y4 and Y5.
#define LOADTILE \
	VMOVUPS (SI)(DX*8), Y0; \
	VMOVUPS 32(SI)(DX*8), Y1; \
	DEINT(Y0, Y1, Y2, Y3); \
	VMOVUPS (R9)(DX*8), Y0; \
	VMOVUPS 32(R9)(DX*8), Y1; \
	DEINT(Y0, Y1, Y4, Y5)

// LOADMASKED is LOADTILE at output 0 through the input masks Y11, Y12:
// masked-off lanes read as zero and touch no memory.
#define LOADMASKED \
	VMASKMOVPS (SI), Y11, Y0; \
	VMASKMOVPS 32(SI), Y12, Y1; \
	DEINT(Y0, Y1, Y2, Y3); \
	VMASKMOVPS (R9), Y11, Y0; \
	VMASKMOVPS 32(R9), Y12, Y1; \
	DEINT(Y0, Y1, Y4, Y5)

// MASKS points R12 at masktab+64 and loads the input masks of an n-output
// row, n = CX < 8 (NEXTROW and the tiles leave R12, Y11 and Y12 alone): Y11 the first 2n of lanes 0–7, Y12 the first 2n−8 of
// lanes 8–15.
#define MASKS \
	LEAQ    masktab<>+64(SB), R12; \
	MOVQ    CX, AX; \
	SHLQ    $1, AX; \
	NEGQ    AX; \
	VMOVDQU (R12)(AX*4), Y11; \
	VMOVDQU 32(R12)(AX*4), Y12

// OUTMASK loads the mask of the first n lanes into Y8.
#define OUTMASK \
	MOVQ    CX, AX; \
	NEGQ    AX; \
	VMOVDQU (R12)(AX*4), Y8

// NEXTROW moves the input two rows (8w bytes) on, the outputs n floats on
// and the argmax base 2w on.
#define NEXTROW \
	LEAQ (SI)(BX*8), SI; \
	LEAQ (DI)(CX*4), DI; \
	LEAQ (R10)(BX*2), R10

// POOL scans the four taps into Y6 in the scalar order (top row even, odd,
// then the bottom row) from the −Inf seed in Y15, which keeps a NaN first
// tap from becoming the value: VMAXPS with the tap as the first source and
// the running value as the second returns the running value unless the tap
// is greater (ties and NaN keep it), which is firstMax. The closing VPERMPD
// puts the outputs in order.
#define POOL \
	VMAXPS  Y15, Y2, Y6; \
	VMAXPS  Y6, Y3, Y6; \
	VMAXPS  Y6, Y4, Y6; \
	VMAXPS  Y6, Y5, Y6; \
	VPERMPD $0xD8, Y6, Y6

// STEP is one firstMax step with its argmax: where tap v > Y6 (GT_OQ, false
// for NaN), Y7 takes index t; then Y6 takes the VMAXPS.
#define STEP(v, t) \
	VCMPPS    $0x1e, Y6, v, Y8; \
	VMAXPS    Y6, v, Y6; \
	VBLENDVPS Y8, t, Y7, Y7

// POOLARG is POOL with the argmax in Y7: −1 until a tap beats −Inf, then
// the tap's index, base + 2·(DX + output) (+1 for the odd tap, +w for row
// 1). Y14 holds the even taps' offsets within a tile, Y13 w in every lane,
// Y10 all ones (−1).
#define POOLARG \
	LEAQ         (R10)(DX*2), AX; \
	VMOVD        AX, X9; \
	VPBROADCASTD X9, Y9; \
	VPADDD       Y14, Y9, Y9; \
	VMOVAPS      Y15, Y6; \
	VMOVDQU      Y10, Y7; \
	STEP(Y2, Y9); \
	VPSUBD       Y10, Y9, Y0; \
	STEP(Y3, Y0); \
	VPADDD       Y13, Y9, Y9; \
	STEP(Y4, Y9); \
	VPSUBD       Y10, Y9, Y0; \
	STEP(Y5, Y0); \
	VPERMPD      $0xD8, Y6, Y6; \
	VPERMQ       $0xD8, Y7, Y7

// func maxPool2x2AVX2(out []float32, arg []int32, in []float32, n, w, base int)
//
// MaxPool2x2 over rows of n outputs, len(out) a nonzero multiple of n; arg
// nil skips the argmax. A row of eight outputs or more runs full tiles, the
// last one over outputs n−8…n−1; a shorter row runs one tile through masks.
// Each row advances the input by two rows (2w floats) and the outputs by n.
TEXT ·maxPool2x2AVX2(SB), NOSPLIT, $0-96
	MOVQ         out_base+0(FP), DI
	MOVQ         out_len+8(FP), R13
	MOVQ         arg_base+24(FP), R8
	MOVQ         in_base+48(FP), SI
	MOVQ         n+72(FP), CX
	MOVQ         w+80(FP), BX
	MOVQ         base+88(FP), R10
	LEAQ         (DI)(R13*4), R13
	VBROADCASTSS neginf<>(SB), Y15
	VPCMPEQD     Y10, Y10, Y10
	MOVQ         CX, R11
	SUBQ         $8, R11
	CMPQ         CX, $8
	JGE          long
	MASKS

long:
	TESTQ R8, R8
	JEQ   eval
	VMOVDQU      tapoffs<>(SB), Y14
	VMOVD        BX, X13
	VPBROADCASTD X13, Y13
	CMPQ         CX, $8
	JLT          trainshort

trainrow:
	LEAQ (SI)(BX*4), R9
	XORQ DX, DX

trainloop:
	LOADTILE
	POOLARG
	VMOVUPS Y6, (DI)(DX*4)
	VMOVDQU Y7, (R8)(DX*4)
	CMPQ    DX, R11
	JEQ     trainnext
	ADDQ    $8, DX
	CMPQ    DX, R11
	CMOVQGT R11, DX
	JMP     trainloop

trainnext:
	NEXTROW
	LEAQ (R8)(CX*4), R8
	CMPQ DI, R13
	JNE  trainrow
	JMP  done

trainshort:
	LEAQ       (SI)(BX*4), R9
	XORQ       DX, DX
	LOADMASKED
	POOLARG
	OUTMASK
	VMASKMOVPS Y6, Y8, (DI)
	VMASKMOVPS Y7, Y8, (R8)
	NEXTROW
	LEAQ       (R8)(CX*4), R8
	CMPQ       DI, R13
	JNE        trainshort
	JMP        done

eval:
	CMPQ CX, $8
	JLT  evalshort

evalrow:
	LEAQ (SI)(BX*4), R9
	XORQ DX, DX

evalloop:
	LOADTILE
	POOL
	VMOVUPS Y6, (DI)(DX*4)
	CMPQ    DX, R11
	JEQ     evalnext
	ADDQ    $8, DX
	CMPQ    DX, R11
	CMOVQGT R11, DX
	JMP     evalloop

evalnext:
	NEXTROW
	CMPQ DI, R13
	JNE  evalrow
	JMP  done

evalshort:
	LEAQ       (SI)(BX*4), R9
	LOADMASKED
	POOL
	OUTMASK
	VMASKMOVPS Y6, Y8, (DI)
	NEXTROW
	CMPQ       DI, R13
	JNE        evalshort

done:
	VZEROUPPER
	RET
