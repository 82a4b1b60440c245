//go:build !amd64

package kernel

// axpyQuad computes c_r[j] += s_r·b[j] for r = 0..3 over j = 0..len(b)-1 —
// the fused four-row update behind gemmRowBlock. This is the portable scalar
// form; axpy_amd64.s carries eight-lane AVX2 and four-lane SSE versions that
// perform the same element-wise IEEE multiply and add, so all produce
// identical bits. Each product is converted to float32 explicitly, which
// forbids the compiler from fusing it into the add (arm64 would). All
// scales must be non-zero (the caller routes zero scales through axpyRow's
// skip path); c rows and b must have equal length.
func axpyQuad(c0, c1, c2, c3, b []float32, s0, s1, s2, s3 float32) {
	for j, bv := range b {
		c0[j] += float32(s0 * bv)
		c1[j] += float32(s1 * bv)
		c2[j] += float32(s2 * bv)
		c3[j] += float32(s3 * bv)
	}
}

// axpy computes c[j] += s·b[j] over j = 0..len(b)-1 — the one-row update
// behind axpyRow. This is the portable scalar form of the AVX2 and SSE
// kernels in axpy_amd64.s; all perform the same element-wise IEEE multiply
// and add.
// c must have len(b) elements.
func axpy(c, b []float32, s float32) {
	for j, bv := range b {
		c[j] += float32(s * bv)
	}
}
