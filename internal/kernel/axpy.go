package kernel

// axpyQuad computes c_r[j] += s_r·b[j] for r = 0..3 over j = 0..len(b)-1 —
// the fused four-row update behind gemmRowBlock. With AVX2 it runs eight
// lanes wide (axpy_amd64.s); otherwise, and on every other build, it runs
// the loop below. VMULPS/VADDPS are element-wise IEEE binary32 operations,
// so every output bit matches the loop's; only the visitation order of
// independent j columns differs, which no element's result depends on. Each
// product is converted to float32 explicitly, which forbids the compiler
// from fusing it into the add (arm64 would). All scales must be non-zero
// (the caller routes zero scales through axpyRow's skip path); c rows and b
// must have equal length.
func axpyQuad(c0, c1, c2, c3, b []float32, s0, s1, s2, s3 float32) {
	if useAVX2 {
		axpyQuadAVX2(c0, c1, c2, c3, b, s0, s1, s2, s3)
		return
	}
	for j, bv := range b {
		c0[j] += float32(s0 * bv)
		c1[j] += float32(s1 * bv)
		c2[j] += float32(s2 * bv)
		c3[j] += float32(s3 * bv)
	}
}

// axpy computes c[j] += s·b[j] over j = 0..len(b)-1 — the one-row update
// behind axpyRow, which every row with a zero neighbour in its register
// block takes (ReLU-sparse operands put most rows there). AVX2 or the loop
// below, as axpyQuad; the same element-wise IEEE multiply and add either
// way. c must have len(b) elements.
func axpy(c, b []float32, s float32) {
	if useAVX2 {
		axpyAVX2(c, b, s)
		return
	}
	for j, bv := range b {
		c[j] += float32(s * bv)
	}
}
