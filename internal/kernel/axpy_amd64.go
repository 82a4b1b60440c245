//go:build amd64

package kernel

// axpyQuad computes c_r[j] += s_r·b[j] for r = 0..3 over j = 0..len(b)-1 —
// the fused four-row update behind gemmRowBlock, implemented four-wide with
// SSE in axpy_amd64.s. MULPS/ADDPS are element-wise IEEE binary32
// operations, so every output bit matches the portable scalar loop in
// axpy_generic.go; only the visitation order of independent j columns
// differs, which no element's result depends on. All scales must be non-zero
// (the caller routes zero scales through axpyRow's skip path); c rows and b
// must have equal length.
//
//go:noescape
func axpyQuad(c0, c1, c2, c3, b []float32, s0, s1, s2, s3 float32)

// axpy computes c[j] += s·b[j] over j = 0..len(b)-1, four lanes at a time
// with SSE (axpy_amd64.s): the one-row update behind axpyRow, which every
// row with a zero neighbour in its register block takes (ReLU-sparse
// operands put most rows there). Element-wise IEEE operations, so the bits
// match the scalar loop of axpy_generic.go. c must have len(b) elements.
//
//go:noescape
func axpy(c, b []float32, s float32)
