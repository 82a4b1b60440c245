package tensor

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/par"
)

// Gemm computes C = alpha·op(A)·op(B) + beta·C where op transposes its
// argument when the corresponding flag is set. A is [m,k] (or [k,m] when
// transA), B is [k,n] (or [n,k] when transB) and C must be [m,n].
//
// The heavy lifting lives in internal/kernel's blocked micro-kernels
// (k-tiled, register-blocked, panel-packed for the transposed-A case);
// this wrapper validates shapes, parallelizes over blocks of rows of C and
// accounts the call to the profiler's gemm phase. Each row of C is written
// by exactly one goroutine and accumulated in a fixed order, so results
// are deterministic regardless of the worker count — this is the single
// most performance-critical routine in the repository (conv layers lower
// onto it via im2col).
func Gemm(transA, transB bool, alpha float32, a, b *Tensor, beta float32, c *Tensor) {
	gemm("Gemm", f32Kernels, transA, transB, alpha, a.Shape, a.Data, b.Shape, b.Data, beta, c)
}

// GemmHalf is Gemm over operands stored as binary16 (C stays float32): the
// same shape contract, the same parallel row decomposition, the same
// float32 arithmetic on the widened values. Results are bit-identical to
// Gemm over the widened operands for every transpose case, under any worker
// count or chunking. On this host that makes binary16 a storage format, not
// a faster arithmetic: GemmHalf costs a decode on top of Gemm and cannot
// out-run it. So no layer calls it any more: the F16 layers round their
// operands in float32 and call Gemm, which gives these bits without the
// decode (see Precision). benchmark/'s f16 GEMM probe still times it.
func GemmHalf(transA, transB bool, alpha float32, a, b *Half, beta float32, c *Tensor) {
	gemm("GemmHalf", f16Kernels, transA, transB, alpha, a.Shape, a.Data, b.Shape, b.Data, beta, c)
}

// gemmKernels names internal/kernel's entry points for one operand storage
// type. The doubly-transposed case has none of its own: see gemm.
type gemmKernels[T float32 | uint16] struct {
	nn, nt func(m, n, k int, alpha float32, a, b []T, beta float32, c []float32)
	tn     func(m, n, k int, alpha float32, a []T, lda, i0 int, b []T, beta float32, c []float32)
	widen  func(src []T) []float32
}

var (
	f32Kernels = gemmKernels[float32]{
		nn: kernel.GemmNN, nt: kernel.GemmNT, tn: kernel.GemmTN,
		widen: func(src []float32) []float32 { return src },
	}
	f16Kernels = gemmKernels[uint16]{
		nn: kernel.GemmNNHalf, nt: kernel.GemmNTHalf, tn: kernel.GemmTNHalf,
		widen: func(src []uint16) []float32 {
			dst := make([]float32, len(src))
			kernel.DecodeHalf(dst, src)
			return dst
		},
	}
)

// gemm is the one dispatch behind Gemm and GemmHalf: shape check, row
// granularity, and the four transpose cases over row blocks of C.
func gemm[T float32 | uint16](op string, kern gemmKernels[T], transA, transB bool, alpha float32, ashape []int, ad []T, bshape []int, bd []T, beta float32, c *Tensor) {
	ra, ca := mustMatrix(op, "A", ashape)
	rb, cb := mustMatrix(op, "B", bshape)
	rc, cc := mustMatrix(op, "C", c.Shape)
	m, k := ra, ca
	if transA {
		m, k = ca, ra
	}
	kb, n := rb, cb
	if transB {
		kb, n = cb, rb
	}
	if k != kb || rc != m || cc != n {
		panic(fmt.Sprintf("tensor: %s shape mismatch op(A)=[%d,%d] op(B)=[%d,%d] C=[%d,%d]", op, m, k, kb, n, rc, cc))
	}
	defer kernel.StartPhase(kernel.PhaseGemm).End()
	cd := c.Data

	// Choose a row granularity that gives each worker a few thousand
	// multiply-adds at minimum.
	grain := 1
	if work := k * n; work > 0 && work < 4096 {
		grain = 4096/work + 1
	}

	switch {
	case !transA && !transB:
		par.ForGrain(m, grain, func(lo, hi int) {
			kern.nn(hi-lo, n, k, alpha, ad[lo*k:hi*k], bd, beta, cd[lo*n:hi*n])
		})
	case transA && !transB:
		// op(A) row i is column i of the [k, m] array ad (row stride ca).
		par.ForGrain(m, grain, func(lo, hi int) {
			kern.tn(hi-lo, n, k, alpha, ad, ca, lo, bd, beta, cd[lo*n:hi*n])
		})
	case !transA && transB:
		par.ForGrain(m, grain, func(lo, hi int) {
			kern.nt(hi-lo, n, k, alpha, ad[lo*k:hi*k], bd, beta, cd[lo*n:hi*n])
		})
	default: // transA && transB: no layer lowers onto it; widen and run the strided loop
		af, bf := kern.widen(ad), kern.widen(bd)
		par.ForGrain(m, grain, func(lo, hi int) {
			kernel.GemmTT(hi-lo, n, k, alpha, af, ca, lo, bf, cb, beta, cd[lo*n:hi*n])
		})
	}
}

func mustMatrix(op, operand string, shape []int) (rows, cols int) {
	if len(shape) != 2 {
		panic(fmt.Sprintf("tensor: %s %s: want matrix, got shape %v", op, operand, shape))
	}
	return shape[0], shape[1]
}
