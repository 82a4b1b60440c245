package nn

import (
	"repro/internal/kernel"
	"repro/internal/par"
	"repro/internal/tensor"
)

// operand is one GEMM input in its layer's storage precision; exactly one
// field is set. A layer packs each input once per pass and then issues one
// gemm per product whatever the precision; the float32 master weights and
// every gradient stay float32.
type operand struct {
	f32 *tensor.Tensor
	f16 *tensor.Half
}

// pack returns t as an operand at precision p: t itself at F32, passed
// through; at F16 its binary16 copy in buf (one round-to-nearest-even per
// element, buf's storage reused call after call). This is the only place the
// layers look at their precision.
func pack(p tensor.Precision, buf *tensor.Half, t *tensor.Tensor) operand {
	if p == tensor.F16 {
		tensor.PackHalf(buf, t)
		return operand{f16: buf}
	}
	return operand{f32: t}
}

// gemm computes c = alpha·op(a)·op(b) + beta·c on two operands of one
// precision.
func gemm(transA, transB bool, alpha float32, a, b operand, beta float32, c *tensor.Tensor) {
	if a.f16 != nil {
		tensor.GemmHalf(transA, transB, alpha, a.f16, b.f16, beta, c)
	} else {
		tensor.Gemm(transA, transB, alpha, a.f32, b.f32, beta, c)
	}
}

// gemmNTSamples accumulates c += Σ_s a_s·b_sᵀ over the nb samples of a block
// panel, in sample order: a is [m, nb·l] and b is [n, nb·l], and sample s
// owns columns [s·l, (s+1)·l) of both. Each sample's product is one strided
// NT kernel call, so every element of c sees the adds of nb separate
// gemm(false, true, 1, a_s, b_s, 1, c) calls in the same order, while the
// rows of c fan out across goroutines once per block rather than once per
// sample.
func gemmNTSamples(a, b operand, nb, l int, c *tensor.Tensor) {
	m, n, ld := c.Shape[0], c.Shape[1], nb*l
	defer kernel.StartPhase(kernel.PhaseGemm).End()
	grain := 1
	if work := ld * n; work < 4096 {
		grain = 4096/work + 1
	}
	par.ForGrain(m, grain, func(lo, hi int) {
		cd := c.Data[lo*n : hi*n]
		for s := 0; s < nb; s++ {
			off := lo*ld + s*l
			if a.f16 != nil {
				kernel.GemmNTStridedHalf(hi-lo, n, l, 1, a.f16.Data[off:], ld, b.f16.Data[s*l:], ld, 1, cd)
			} else {
				kernel.GemmNTStrided(hi-lo, n, l, 1, a.f32.Data[off:], ld, b.f32.Data[s*l:], ld, 1, cd)
			}
		}
	})
}
