//go:build amd64

#include "textflag.h"

// func dotQuad(a, b0, b1, b2, b3 []float32) (s0, s1, s2, s3 float32)
//
// Four pairwiseDot base cases sharing one a: column c's XMM accumulator
// holds pairwiseDot's four partial sums in its lanes (lane r sums the
// products at i ≡ r mod 4), the tail goes into lane 0, and the finish is
// (lane0+lane1)+(lane2+lane3). MULPS/ADDPS/MULSS/ADDSS are element-wise
// IEEE binary32 operations, so each result is bit-identical to the scalar
// twin in dot_generic.go. Lengths are taken from a (the caller guarantees
// the b columns match).
TEXT ·dotQuad(SB), NOSPLIT, $0-136
	MOVQ  a_base+0(FP), SI
	MOVQ  a_len+8(FP), CX
	MOVQ  b0_base+24(FP), R8
	MOVQ  b1_base+48(FP), R9
	MOVQ  b2_base+72(FP), R10
	MOVQ  b3_base+96(FP), R11
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	CMPQ  CX, $4
	JLT   tail

vec:
	MOVUPS (SI), X4      // four a values, shared by all four columns

	MOVUPS (R8), X5
	MULPS  X4, X5
	ADDPS  X5, X0

	MOVUPS (R9), X5
	MULPS  X4, X5
	ADDPS  X5, X1

	MOVUPS (R10), X5
	MULPS  X4, X5
	ADDPS  X5, X2

	MOVUPS (R11), X5
	MULPS  X4, X5
	ADDPS  X5, X3

	ADDQ  $16, SI
	ADDQ  $16, R8
	ADDQ  $16, R9
	ADDQ  $16, R10
	ADDQ  $16, R11
	SUBQ  $4, CX
	CMPQ  CX, $4
	JGE   vec

tail:
	TESTQ CX, CX
	JEQ   finish

tailloop:
	MOVSS (SI), X4

	MOVSS (R8), X5
	MULSS X4, X5
	ADDSS X5, X0

	MOVSS (R9), X5
	MULSS X4, X5
	ADDSS X5, X1

	MOVSS (R10), X5
	MULSS X4, X5
	ADDSS X5, X2

	MOVSS (R11), X5
	MULSS X4, X5
	ADDSS X5, X3

	ADDQ  $4, SI
	ADDQ  $4, R8
	ADDQ  $4, R9
	ADDQ  $4, R10
	ADDQ  $4, R11
	DECQ  CX
	JNE   tailloop

finish:
	// Per accumulator [l0 l1 l2 l3]: add its lane-swapped copy
	// [l1 l0 l3 l2] to get l0+l1 in lane 0 and l2+l3 in lane 2, then add
	// lane 2 into lane 0.
	MOVAPS  X0, X5
	SHUFPS  $0xB1, X5, X5
	ADDPS   X5, X0
	MOVHLPS X0, X5
	ADDSS   X5, X0
	MOVSS   X0, s0+120(FP)

	MOVAPS  X1, X5
	SHUFPS  $0xB1, X5, X5
	ADDPS   X5, X1
	MOVHLPS X1, X5
	ADDSS   X5, X1
	MOVSS   X1, s1+124(FP)

	MOVAPS  X2, X5
	SHUFPS  $0xB1, X5, X5
	ADDPS   X5, X2
	MOVHLPS X2, X5
	ADDSS   X5, X2
	MOVSS   X2, s2+128(FP)

	MOVAPS  X3, X5
	SHUFPS  $0xB1, X5, X5
	ADDPS   X5, X3
	MOVHLPS X3, X5
	ADDSS   X5, X3
	MOVSS   X3, s3+132(FP)
	RET

// PAIR2 multiplies four k-elements of two columns, the one at bl in the low
// half of Y10 and the one at bh in the high half, by both rows' broadcast
// A values (Y8, Y9) and adds the products into the rows' accumulators.
#define PAIR2(bl, bh, acc0, acc1) \
	VMOVUPS     (bl)(AX*1), X10; \
	VINSERTF128 $1, (bh)(AX*1), Y10, Y10; \
	VMULPS      Y8, Y10, Y12; \
	VMULPS      Y9, Y10, Y13; \
	VADDPS      Y12, acc0, acc0; \
	VADDPS      Y13, acc1, acc1

// PAIR1 is PAIR2 for the one row in Y8.
#define PAIR1(bl, bh, acc) \
	VMOVUPS     (bl)(AX*1), X10; \
	VINSERTF128 $1, (bh)(AX*1), Y10, Y10; \
	VMULPS      Y8, Y10, Y12; \
	VADDPS      Y12, acc, acc

// TAIL2 adds one tail element's products into lane 0 of each column (lanes
// 0 and 4 of the accumulators): the whole register is multiplied and added,
// and the blend keeps the sum in those two lanes only.
#define TAIL2(bl, bh, acc0, acc1) \
	VMOVSS      (bl)(AX*1), X10; \
	VMOVSS      (bh)(AX*1), X11; \
	VINSERTF128 $1, X11, Y10, Y10; \
	VMULPS      Y8, Y10, Y12; \
	VMULPS      Y9, Y10, Y13; \
	VADDPS      Y12, acc0, Y12; \
	VADDPS      Y13, acc1, Y13; \
	VBLENDPS    $0x11, Y12, acc0, acc0; \
	VBLENDPS    $0x11, Y13, acc1, acc1

// TAIL1 is TAIL2 for the one row in Y8.
#define TAIL1(bl, bh, acc) \
	VMOVSS      (bl)(AX*1), X10; \
	VMOVSS      (bh)(AX*1), X11; \
	VINSERTF128 $1, X11, Y10, Y10; \
	VMULPS      Y8, Y10, Y12; \
	VADDPS      Y12, acc, Y12; \
	VBLENDPS    $0x11, Y12, acc, acc

// FINISH reduces one row's four accumulators, which hold columns c and c+4
// in their halves (A: 0 and 4, B: 1 and 5, C: 2 and 6, D: 3 and 7), four
// partial sums [l0 l1 l2 l3] per column, to the eight sums in A in column
// order. A 4×4 transpose within each half gives L_r = [A_r B_r C_r D_r],
// then (L0+L1)+(L2+L3): per column dotQuad's finish, the same adds with the
// same first operands, four columns a register.
#define FINISH(A, B, C, D) \
	VUNPCKLPS B, A, Y8; \
	VUNPCKHPS B, A, Y9; \
	VUNPCKLPS D, C, Y10; \
	VUNPCKHPS D, C, Y11; \
	VUNPCKLPD Y10, Y8, A; \
	VUNPCKHPD Y10, Y8, B; \
	VUNPCKLPD Y11, Y9, C; \
	VUNPCKHPD Y11, Y9, D; \
	VADDPS    B, A, A; \
	VADDPS    D, C, C; \
	VADDPS    C, A, A

// func addSums(s, r []float32)
//
// s[i] = r[i] + s[i], r the first operand of each ADDPS/ADDSS.
TEXT ·addSums(SB), NOSPLIT, $0-48
	MOVQ s_base+0(FP), DI
	MOVQ r_base+24(FP), SI
	MOVQ r_len+32(FP), CX
	CMPQ CX, $4
	JLT  sumtail

sumvec:
	MOVUPS (SI), X0
	MOVUPS (DI), X1
	ADDPS  X1, X0
	MOVUPS X0, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	SUBQ   $4, CX
	CMPQ   CX, $4
	JGE    sumvec

sumtail:
	TESTQ CX, CX
	JEQ   sumdone

sumtailloop:
	MOVSS (SI), X0
	MOVSS (DI), X1
	ADDSS X1, X0
	MOVSS X0, (DI)
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  CX
	JNE   sumtailloop

sumdone:
	RET

// func dotTileAVX2(s *[16]float32, a0, a1, b []float32, ldb, rows int)
//
// Sixteen (rows == 2) or eight (rows == 1) pairwiseDot base cases: row r of
// A against the eight columns b[c·ldb:], written to s[8·r + c]. Each YMM
// accumulator holds two columns of one row, c in the low half and c+4 in
// the high half, four partial sums per column as dotQuad's XMM accumulator
// holds them (lane r of a half sums the products at i ≡ r mod 4); one
// VBROADCASTF128 of four A values per row meets four B registers, each two
// columns' four values, and each B register serves both rows. Every product
// is b·a (b the first source) and every sum acc + product (acc the first
// source), dotQuad's operand order, and the tail and finish are dotQuad's
// too, so each column's bits are dotQuad's, NaN payloads included. Lengths
// are taken from a0 (the caller guarantees a1 and the eight columns have as
// many elements). Y15 (X15 is the ABI's zero register) is not touched.
TEXT ·dotTileAVX2(SB), NOSPLIT, $0-96
	MOVQ a0_base+8(FP), SI
	MOVQ a0_len+16(FP), CX
	MOVQ a1_base+32(FP), DI
	MOVQ b_base+56(FP), R8
	MOVQ ldb+80(FP), DX
	SHLQ $2, DX              // column stride in bytes
	LEAQ (R8)(DX*1), R9      // columns 1..7
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11
	LEAQ (R11)(DX*1), R12
	LEAQ (R12)(DX*1), R13
	LEAQ (R13)(DX*1), BX
	ADDQ BX, DX
	XORQ AX, AX              // byte offset of element i
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	CMPQ   rows+88(FP), $2
	JNE    one
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	CMPQ   CX, $4
	JLT    tail2

vec2:
	VBROADCASTF128 (SI)(AX*1), Y8
	VBROADCASTF128 (DI)(AX*1), Y9
	PAIR2(R8, R12, Y0, Y4)
	PAIR2(R9, R13, Y1, Y5)
	PAIR2(R10, BX, Y2, Y6)
	PAIR2(R11, DX, Y3, Y7)
	ADDQ $16, AX
	SUBQ $4, CX
	CMPQ CX, $4
	JGE  vec2

tail2:
	TESTQ CX, CX
	JEQ   finish2

tailloop2:
	VBROADCASTSS (SI)(AX*1), Y8
	VBROADCASTSS (DI)(AX*1), Y9
	TAIL2(R8, R12, Y0, Y4)
	TAIL2(R9, R13, Y1, Y5)
	TAIL2(R10, BX, Y2, Y6)
	TAIL2(R11, DX, Y3, Y7)
	ADDQ $4, AX
	DECQ CX
	JNE  tailloop2

finish2:
	MOVQ    s+0(FP), AX
	FINISH(Y4, Y5, Y6, Y7)
	VMOVUPS Y4, 32(AX)
	JMP     finish1

one:
	CMPQ CX, $4
	JLT  tail1

vec1:
	VBROADCASTF128 (SI)(AX*1), Y8
	PAIR1(R8, R12, Y0)
	PAIR1(R9, R13, Y1)
	PAIR1(R10, BX, Y2)
	PAIR1(R11, DX, Y3)
	ADDQ $16, AX
	SUBQ $4, CX
	CMPQ CX, $4
	JGE  vec1

tail1:
	TESTQ CX, CX
	JEQ   finish1

tailloop1:
	VBROADCASTSS (SI)(AX*1), Y8
	TAIL1(R8, R12, Y0)
	TAIL1(R9, R13, Y1)
	TAIL1(R10, BX, Y2)
	TAIL1(R11, DX, Y3)
	ADDQ $4, AX
	DECQ CX
	JNE  tailloop1

finish1:
	MOVQ    s+0(FP), AX
	FINISH(Y0, Y1, Y2, Y3)
	VMOVUPS Y0, (AX)
	VZEROUPPER
	RET
