//go:build amd64

package kernel

// axpyQuad computes c_r[j] += s_r·b[j] for r = 0..3 over j = 0..len(b)-1 —
// the fused four-row update behind gemmRowBlock, eight lanes wide with AVX2
// where the CPU has it and four wide with SSE otherwise (axpy_amd64.s).
// VMULPS/VADDPS and MULPS/ADDPS are element-wise IEEE binary32 operations
// with the same operand order, so every output bit matches the portable
// scalar loop in axpy_generic.go; only the visitation order of independent
// j columns differs, which no element's result depends on. All scales must
// be non-zero (the caller routes zero scales through axpyRow's skip path);
// c rows and b must have equal length.
func axpyQuad(c0, c1, c2, c3, b []float32, s0, s1, s2, s3 float32) {
	if useAVX2 {
		axpyQuadAVX2(c0, c1, c2, c3, b, s0, s1, s2, s3)
		return
	}
	axpyQuadSSE(c0, c1, c2, c3, b, s0, s1, s2, s3)
}

// axpy computes c[j] += s·b[j] over j = 0..len(b)-1, with AVX2 or SSE as
// axpyQuad is (axpy_amd64.s): the one-row update behind axpyRow, which
// every row with a zero neighbour in its register block takes (ReLU-sparse
// operands put most rows there). Element-wise IEEE operations, so the bits
// match the scalar loop of axpy_generic.go. c must have len(b) elements.
func axpy(c, b []float32, s float32) {
	if useAVX2 {
		axpyAVX2(c, b, s)
		return
	}
	axpySSE(c, b, s)
}

//go:noescape
func axpyQuadSSE(c0, c1, c2, c3, b []float32, s0, s1, s2, s3 float32)

//go:noescape
func axpyQuadAVX2(c0, c1, c2, c3, b []float32, s0, s1, s2, s3 float32)

//go:noescape
func axpySSE(c, b []float32, s float32)

//go:noescape
func axpyAVX2(c, b []float32, s float32)
