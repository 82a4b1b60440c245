package nn

import "repro/internal/tensor"

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
