package kernel

import "slices"

// One GEMM body per transpose case (NN, TN, NT), over float32 operands. Per
// output element the accumulation order over l is ascending regardless of
// blocking, and each C row is a pure function of the operands, so results
// are bit-identical under any caller-side row chunking, worker count or
// reduction topology.
//
// Binary16 is a rounding, not an operand type: on this host it has no
// arithmetic of its own, and widening it to float32 is exact. So the F16
// layers (internal/nn) round each operand through binary16 into float32
// scratch with RoundHalf and call the f32 kernels, and the Half entry
// points below — benchmark/'s kernel probes, no layer — decode their
// operands once into float32 and run the same f32 body. "f16 == f32 on the
// widened operands" is how they are written, not a property to maintain.

// gemmKC is the k-tile width of the blocked GEMM kernels: the B (or packed
// A) panel touched by one tile is gemmKC rows, small enough to stay
// cache-resident across the whole row range of the block.
const gemmKC = 256

// GemmNNHalf is GemmNN over binary16 A and B (C stays float32): both widen
// once, then GemmNN runs. No layer calls it; see the package GEMM notes
// above.
func GemmNNHalf(m, n, k int, alpha float32, a, b []uint16, beta float32, c []float32) {
	GemmNN(m, n, k, alpha, widenHalves(a[:m*k]), widenHalves(b[:k*n]), beta, c)
}

// GemmNN computes C[m×n] = alpha·A[m×k]·B[k×n] + beta·C over contiguous
// row-major blocks. It is the serial micro-kernel behind tensor.Gemm's
// no-transpose case: the caller parallelizes over disjoint row ranges and
// hands each goroutine its contiguous A/C sub-blocks. Per output row the
// accumulation order over l is ascending regardless of blocking, so every
// row of C is deterministic for any caller-side chunking.
//
// It k-tiles the l loop (the B panel of one tile stays hot across all rows
// of the block) and register-blocks four rows of C at a time, so each
// streamed row of B is reused fourfold; see gemmRowBlock.
func GemmNN(m, n, k int, alpha float32, a, b []float32, beta float32, c []float32) {
	applyBeta(c[:m*n], beta)
	if n == 0 {
		return
	}
	var pk [4 * gemmKC]float32
	for kt := 0; kt < k; kt += gemmKC {
		kc := min(gemmKC, k-kt)
		bp := b[kt*n:]
		for i := 0; i < m; i += 4 {
			// Row i+r's k-tile is at[r*k : r*k+kc].
			at := a[i*k+kt:]
			if rows := m - i; rows < 4 {
				for r := 0; r < rows; r++ {
					crow := c[(i+r)*n : (i+r+1)*n]
					for l, av := range at[r*k : r*k+kc] {
						axpyRow(crow, alpha*av, bp[l*n:(l+1)*n])
					}
				}
				break
			}
			// Pack the four rows' scales interleaved:
			// pk[4·l + r] = alpha·A[i+r][kt+l].
			for r := 0; r < 4; r++ {
				q := r
				for _, v := range at[r*k : r*k+kc] {
					pk[q] = alpha * v
					q += 4
				}
			}
			gemmRowBlock(n, kc, pk[:4*kc], bp, c[i*n:(i+4)*n])
		}
	}
}

// GemmTN computes C[m×n] = alpha·op(A)·B[k×n] + beta·C where op(A) row i is
// column i0+i of the row-major array a with row stride lda (i.e. element
// (i, l) is a[l*lda + i0 + i]). Accumulation order per output row is
// ascending l, as in GemmNN.
//
// It packs each k-tile of four A columns into a contiguous panel first, so
// the inner loops run the same register-blocked micro-kernel as GemmNN
// instead of striding through a.
func GemmTN(m, n, k int, alpha float32, a []float32, lda, i0 int, b []float32, beta float32, c []float32) {
	applyBeta(c[:m*n], beta)
	if n == 0 {
		return
	}
	var pk [4 * gemmKC]float32
	for kt := 0; kt < k; kt += gemmKC {
		kc := min(gemmKC, k-kt)
		bp := b[kt*n:]
		// The tile of op(A), still transposed: aw[l·lda + i] = op(A)[i][kt+l].
		aw := a[kt*lda+i0:]
		i := 0
		for ; i+4 <= m; i += 4 {
			// Pack the four columns' scales:
			// pk[4·l + r] = alpha·op(A)[i+r][kt+l].
			for l := 0; l < kc; l++ {
				off := l*lda + i
				pk[4*l+0] = alpha * aw[off]
				pk[4*l+1] = alpha * aw[off+1]
				pk[4*l+2] = alpha * aw[off+2]
				pk[4*l+3] = alpha * aw[off+3]
			}
			gemmRowBlock(n, kc, pk[:4*kc], bp, c[i*n:(i+4)*n])
		}
		for ; i < m; i++ {
			crow := c[i*n : (i+1)*n]
			for l := 0; l < kc; l++ {
				axpyRow(crow, alpha*aw[l*lda+i], bp[l*n:(l+1)*n])
			}
		}
	}
}

// gemmRowBlock is the one four-row micro-kernel of the package: c is four
// contiguous rows of C, sc the packed scales of one k-tile (sc[4·l + r] =
// alpha·A[r][l] scales row r at step l), bp the kc×n B panel. Every element
// accumulates s_r·B[l][j] in ascending l, each a rounded multiply and then
// a rounded add (no FMA), so every C row stays a pure function of the
// operands under any caller-side chunking.
//
// With AVX2, a k-tile without a zero scale goes through the register tile
// (gemmTile) over the leading multiple of 16 columns: each 4×16 strip of C
// is loaded once, takes all kc updates in registers and is stored once,
// instead of streaming through cache once per l. The remaining columns, and
// the whole block otherwise, take the per-step path: axpyQuad,
// the fused four-row update, when all four scales of a step are non-zero,
// and one axpyRow per row otherwise. Columns are independent, so the split
// does not move a bit.
func gemmRowBlock(n, kc int, sc, bp, c []float32) {
	j0 := 0
	if !slices.Contains(sc, 0) {
		j0 = gemmTile(c, sc, bp, n)
	}
	if j0 == n {
		return
	}
	c0 := c[0*n+j0 : 1*n]
	c1 := c[1*n+j0 : 2*n]
	c2 := c[2*n+j0 : 3*n]
	c3 := c[3*n+j0 : 4*n]
	for l := 0; l < kc; l++ {
		s := sc[4*l : 4*l+4]
		brow := bp[l*n+j0 : (l+1)*n]
		if s[0] == 0 || s[1] == 0 || s[2] == 0 || s[3] == 0 {
			// Mixed or all-zero scales: drop to per-row updates so a zero
			// row skips exactly as a lone row would. Each row's arithmetic
			// must not depend on its block neighbors (0·Inf would mint a
			// NaN, 0 + -0 would flip a sign a lone row never sees), or
			// results would vary with the caller's row chunking.
			axpyRow(c0, s[0], brow)
			axpyRow(c1, s[1], brow)
			axpyRow(c2, s[2], brow)
			axpyRow(c3, s[3], brow)
			continue
		}
		axpyQuad(c0, c1, c2, c3, brow, s[0], s[1], s[2], s[3])
	}
}

// gemmTile runs gemmRowBlock's register tile (gemm_amd64.s) over the
// leading multiple of 16 of the n columns of the four C rows c and returns
// how many columns it covered: none without AVX2 or when n < 16. Every
// scale in sc must be non-zero.
func gemmTile(c, sc, bp []float32, n int) int {
	cols := n &^ 15
	if !useAVX2 || cols == 0 {
		return 0
	}
	gemmTileAVX2(c[:4*n], sc, bp[:len(sc)/4*n], n, cols)
	return cols
}

// axpyRow computes c += s·b, skipping entirely when s is zero — the one
// per-row update semantics every NN/TN path shares, so a row's result never
// depends on which rows share its register block or on the caller's row
// chunking. The non-zero update is axpy, AVX2 where the CPU has it: after a
// ReLU most four-row blocks hold a zero, so this is where sparse operands
// spend their time.
func axpyRow(c []float32, s float32, b []float32) {
	if s == 0 {
		return
	}
	axpy(c, b, s)
}

// GemmNT computes C[m×n] = alpha·A[m×k]·op(B) + beta·C where op(B) column j
// is row j of the row-major array b (so element (l, j) is b[j*k + l]).
// Both operands of each output element are contiguous, so every element is
// one fixed-tree multi-accumulator dot product (pairwiseDot) — breaking the
// single-accumulator dependency chain of the naive loop while keeping each
// output a pure function of its inputs. See GemmNTStrided for how the
// columns are grouped; the bits are those of one pairwiseDot per element.
func GemmNT(m, n, k int, alpha float32, a, b []float32, beta float32, c []float32) {
	GemmNTStrided(m, n, k, alpha, a, k, b, k, beta, c)
}

// GemmNTHalf is GemmNT over binary16 A and B: both widen once, then GemmNT
// runs. No layer calls it; see the package GEMM notes above.
func GemmNTHalf(m, n, k int, alpha float32, a, b []uint16, beta float32, c []float32) {
	GemmNT(m, n, k, alpha, widenHalves(a[:m*k]), widenHalves(b[:n*k]), beta, c)
}

// GemmNTStrided is GemmNT with row strides: row i of A is a[i*lda:i*lda+k]
// and row j of B is b[j*ldb:j*ldb+k], so the k-wide window of a wider
// row-major array is an operand in place (Conv2D's per-sample dW over a
// block panel). Each element is the same pairwiseDot as GemmNT's.
//
// It walks C eight columns at a time with the rows inside, so the eight B
// rows of a tile stay cache-resident while the A rows stream past them in
// pairs: pairwiseDotTile computes two rows × eight columns per walk of the
// pairwise tree (leaves dotTileAVX2 where the CPU has it, else dotTile), and
// an odd last row runs the same tile one row wide. When n mod 8 columns are
// left over, one more tile runs over the last eight columns, n−8…n−1, and
// stores only the n mod 8 it adds: storing a column twice would apply beta
// twice. Below eight columns the scalar pairwiseDot takes each element.
// Columns are independent, so the split moves no bit.
func GemmNTStrided(m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32) {
	if m == 0 || n == 0 {
		return
	}
	row := func(w []float32, ld, r int) []float32 { return w[r*ld : r*ld+k] }
	store := func(i, j int, s []float32) {
		cs := c[i*n+j : i*n+j+len(s)]
		for q, v := range s {
			cs[q] = scaleAdd(cs[q], v, alpha, beta)
		}
	}
	if n < 8 {
		for j := 0; j < n; j++ {
			bj := row(b, ldb, j)
			for i := 0; i < m; i++ {
				c[i*n+j] = scaleAdd(c[i*n+j], pairwiseDot(row(a, lda, i), bj), alpha, beta)
			}
		}
		return
	}
	for j := 0; j < n; j += 8 {
		// Past the last multiple of eight, the tile moves back to the last
		// eight columns and stores from the first column it adds.
		skip := 0
		if j+8 > n {
			skip, j = j-(n-8), n-8
		}
		bt := b[j*ldb : (j+7)*ldb+k]
		var s [16]float32
		i := 0
		for ; i+2 <= m; i += 2 {
			pairwiseDotTile(&s, row(a, lda, i), row(a, lda, i+1), bt, ldb, 2)
			store(i, j+skip, s[skip:8])
			store(i+1, j+skip, s[8+skip:])
		}
		if i < m {
			a0 := row(a, lda, i)
			pairwiseDotTile(&s, a0, a0, bt, ldb, 1)
			store(i, j+skip, s[skip:8])
		}
	}
}

// scaleAdd is one NT/TT output element: alpha·s + beta·c, where beta == 0
// overwrites (never multiplies a pre-existing NaN).
func scaleAdd(c, s, alpha, beta float32) float32 {
	if beta == 0 {
		return alpha * s
	}
	return float32(beta*c) + float32(alpha*s)
}

// GemmTT computes C[m×n] = alpha·op(A)·op(B) + beta·C with both operands
// transposed: op(A)(i, l) = a[l*lda + i0 + i], op(B)(l, j) = b[j*ldb + l].
// The doubly-transposed case sits on no hot path (no layer lowers onto
// it), so it keeps the simple strided loop.
func GemmTT(m, n, k int, alpha float32, a []float32, lda, i0 int, b []float32, ldb int, beta float32, c []float32) {
	for i := 0; i < m; i++ {
		crow := c[i*n : (i+1)*n]
		for j := range crow {
			var s float32
			for l := 0; l < k; l++ {
				s += float32(a[l*lda+i0+i] * b[j*ldb+l])
			}
			crow[j] = scaleAdd(crow[j], s, alpha, beta)
		}
	}
}

// applyBeta scales the output block by beta before accumulation: beta == 0
// overwrites (never multiplies pre-existing NaNs), beta == 1 is a no-op.
func applyBeta(c []float32, beta float32) {
	switch beta {
	case 0:
		for j := range c {
			c[j] = 0
		}
	case 1:
	default:
		for j := range c {
			c[j] *= beta
		}
	}
}
