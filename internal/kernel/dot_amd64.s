//go:build amd64

#include "textflag.h"

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
// then (L0+L1)+(L2+L3): per column baseDot's finish, four columns a
// register.
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
// the high half, baseDot's four partial sums per column (lane r of a half
// sums the products at i ≡ r mod 4); one VBROADCASTF128 of four A values
// per row meets four B registers, each two columns' four values, and each
// B register serves both rows. The tail goes into lane 0 and the finish is
// (l0+l1)+(l2+l3), so each column does baseDot's rounded multiplies and
// adds in baseDot's order and its bits are baseDot's. Every product is b·a
// (b the first source) and every sum acc + product (acc the first source);
// which payload a NaN meeting a NaN keeps is that operand order, which Go
// code does not fix. Lengths are taken from a0 (the caller guarantees a1
// and the eight columns have as many elements). Y15 (X15 is the ABI's zero
// register) is not touched.
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
