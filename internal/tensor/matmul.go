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
	ra, ca := mustMatrix("A", a.Shape)
	rb, cb := mustMatrix("B", b.Shape)
	rc, cc := mustMatrix("C", c.Shape)
	m, k := ra, ca
	if transA {
		m, k = ca, ra
	}
	kb, n := rb, cb
	if transB {
		kb, n = cb, rb
	}
	if k != kb || rc != m || cc != n {
		panic(fmt.Sprintf("tensor: Gemm shape mismatch op(A)=[%d,%d] op(B)=[%d,%d] C=[%d,%d]", m, k, kb, n, rc, cc))
	}
	defer kernel.StartPhase(kernel.PhaseGemm).End()
	ad, bd, cd := a.Data, b.Data, c.Data

	// Choose a row granularity that gives each worker a few thousand
	// multiply-adds at minimum.
	grain := 1
	if work := k * n; work > 0 && work < 4096 {
		grain = 4096/work + 1
	}

	switch {
	case !transA && !transB:
		par.ForGrain(m, grain, func(lo, hi int) {
			kernel.GemmNN(hi-lo, n, k, alpha, ad[lo*k:hi*k], bd, beta, cd[lo*n:hi*n])
		})
	case transA && !transB:
		// op(A) row i is column i of the [k, m] array ad (row stride ca).
		par.ForGrain(m, grain, func(lo, hi int) {
			kernel.GemmTN(hi-lo, n, k, alpha, ad, ca, lo, bd, beta, cd[lo*n:hi*n])
		})
	case !transA && transB:
		par.ForGrain(m, grain, func(lo, hi int) {
			kernel.GemmNT(hi-lo, n, k, alpha, ad[lo*k:hi*k], bd, beta, cd[lo*n:hi*n])
		})
	default: // transA && transB: no layer lowers onto it; the strided loop
		par.ForGrain(m, grain, func(lo, hi int) {
			kernel.GemmTT(hi-lo, n, k, alpha, ad, ca, lo, bd, cb, beta, cd[lo*n:hi*n])
		})
	}
}

// GemmHalf is Gemm over operands stored as binary16 (C stays float32): it
// widens A and B once into float32 and runs Gemm, so its results are Gemm's
// over the widened operands for every transpose case, under any worker count
// or chunking. On this host binary16 is a storage format, not a faster
// arithmetic: GemmHalf costs a decode on top of Gemm and cannot out-run it.
// No layer calls it: the F16 layers round their operands in float32 and call
// Gemm (see Precision). benchmark/'s f16 GEMM probe times it.
func GemmHalf(transA, transB bool, alpha float32, a, b *Half, beta float32, c *Tensor) {
	Gemm(transA, transB, alpha, a.widen(), b.widen(), beta, c)
}

func mustMatrix(operand string, shape []int) (rows, cols int) {
	if len(shape) != 2 {
		panic(fmt.Sprintf("tensor: Gemm %s: want matrix, got shape %v", operand, shape))
	}
	return shape[0], shape[1]
}
