package kernel

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
// streamed row of B is reused fourfold.
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
			// Pack the four rows' tiles interleaved: pk[4·l + r] = A[i+r][kt+l].
			for r := 0; r < 4; r++ {
				q := r
				for _, v := range at[r*k : r*k+kc] {
					pk[q] = v
					q += 4
				}
			}
			gemmRowBlock(n, kc, alpha, pk[:4*kc], bp, c[i*n:(i+4)*n])
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
			// Pack the four columns' tile: pk[4·l + r] = op(A)[i+r][kt+l].
			for l := 0; l < kc; l++ {
				off := l*lda + i
				pk[4*l+0] = aw[off]
				pk[4*l+1] = aw[off+1]
				pk[4*l+2] = aw[off+2]
				pk[4*l+3] = aw[off+3]
			}
			gemmRowBlock(n, kc, alpha, pk[:4*kc], bp, c[i*n:(i+4)*n])
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
// contiguous rows of C, pk the packed A tile (pk[4·l + r] scales row r at
// step l), bp the kc×n B panel. Per l, the four rows accumulate
// s_r·B[l] with per-row zero skips; the all-non-zero fast path runs through
// axpyQuad, the four-row fused update, and a block holding a zero through
// one axpy per non-zero row. The amd64 build vectorizes both four-wide
// (element-wise IEEE mul/add, so results are bit-identical to the scalar
// loops). Per element the adds happen in ascending l, so every C row
// stays a pure function of the operands under any caller-side chunking.
func gemmRowBlock(n, kc int, alpha float32, pk, bp, c []float32) {
	c0 := c[0*n : 1*n]
	c1 := c[1*n : 2*n]
	c2 := c[2*n : 3*n]
	c3 := c[3*n : 4*n]
	for l := 0; l < kc; l++ {
		pq := pk[4*l : 4*l+4]
		s0 := alpha * pq[0]
		s1 := alpha * pq[1]
		s2 := alpha * pq[2]
		s3 := alpha * pq[3]
		brow := bp[l*n : (l+1)*n]
		if s0 == 0 || s1 == 0 || s2 == 0 || s3 == 0 {
			// Mixed or all-zero scales: drop to per-row updates so a zero
			// row skips exactly as a lone row would. Each row's arithmetic
			// must not depend on its block neighbors (0·Inf would mint a
			// NaN, 0 + -0 would flip a sign a lone row never sees), or
			// results would vary with the caller's row chunking.
			axpyRow(c0, s0, brow)
			axpyRow(c1, s1, brow)
			axpyRow(c2, s2, brow)
			axpyRow(c3, s3, brow)
			continue
		}
		axpyQuad(c0, c1, c2, c3, brow, s0, s1, s2, s3)
	}
}

// axpyRow computes c += s·b, skipping entirely when s is zero — the one
// per-row update semantics every NN/TN path shares, so a row's result never
// depends on which rows share its register block or on the caller's row
// chunking. The non-zero update is axpy, SSE on amd64: after a ReLU most
// four-row blocks hold a zero, so this is where sparse operands spend their
// time.
func axpyRow(c []float32, s float32, b []float32) {
	if s == 0 {
		return
	}
	axpy(c, b, s)
}

// GemmNT computes C[m×n] = alpha·A[m×k]·op(B) + beta·C where op(B) column j
// is row j of the row-major array b (so element (l, j) is b[j*k + l]).
// Both operands of each output element are contiguous, so every element is
// one fixed-tree multi-accumulator dot product (PairwiseDot) — breaking the
// single-accumulator dependency chain of the naive loop while keeping each
// output a pure function of its inputs. Columns go four at a time through
// pairwiseDotQuad, which walks the same tree with one SSE pass per leaf
// (dot_amd64.s), so the bits are those of one PairwiseDot per element.
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
// block panel). Each element is the same PairwiseDot as GemmNT's.
//
// It walks C four columns at a time with the rows inside, so the four B
// rows of a quad stay cache-resident while the A rows stream past them.
func GemmNTStrided(m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32) {
	if m == 0 || n == 0 {
		return
	}
	row := func(w []float32, ld, r int) []float32 { return w[r*ld : r*ld+k] }
	j := 0
	for ; j+4 <= n; j += 4 {
		b0, b1, b2, b3 := row(b, ldb, j), row(b, ldb, j+1), row(b, ldb, j+2), row(b, ldb, j+3)
		for i := 0; i < m; i++ {
			s0, s1, s2, s3 := pairwiseDotQuad(row(a, lda, i), b0, b1, b2, b3)
			cq := c[i*n+j : i*n+j+4]
			cq[0] = scaleAdd(cq[0], s0, alpha, beta)
			cq[1] = scaleAdd(cq[1], s1, alpha, beta)
			cq[2] = scaleAdd(cq[2], s2, alpha, beta)
			cq[3] = scaleAdd(cq[3], s3, alpha, beta)
		}
	}
	for ; j < n; j++ {
		bj := row(b, ldb, j)
		for i := 0; i < m; i++ {
			c[i*n+j] = scaleAdd(c[i*n+j], pairwiseDot(row(a, lda, i), bj), alpha, beta)
		}
	}
}

// scaleAdd is one NT/TT output element: alpha·s + beta·c, where beta == 0
// overwrites (never multiplies a pre-existing NaN).
func scaleAdd(c, s, alpha, beta float32) float32 {
	if beta == 0 {
		return alpha * s
	}
	return beta*c + alpha*s
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
				s += a[l*lda+i0+i] * b[j*ldb+l]
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
