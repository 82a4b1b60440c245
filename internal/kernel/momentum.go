package kernel

// Momentum applies the heavy-ball step SGD and LARS share to one parameter,
// element by element:
//
//	grad = g + λ·w        (only when decay is set)
//	v    = m·v + r·grad
//	w    = w − v
//
// decay=false drops the λ·w term outright rather than adding 0·w, which
// would turn a −0 gradient into +0. v, w and g must have equal lengths; v
// and w are updated in place, g is only read.
//
// With AVX2, momentumVec (momentum_amd64.s) runs the leading multiple of
// four elements, eight lanes at a time and then one pass of four;
// momentumScalar takes the tail, and every element without AVX2. Neither
// form uses FMA: each does the rounded multiplies and adds above, in this
// order, so both give the same bits.
func Momentum(v, w, g []float32, m, r, lambda float32, decay bool) {
	if len(w) != len(v) || len(g) != len(v) {
		panic("kernel: Momentum length mismatch")
	}
	i := momentumVec(v, w, g, m, r, lambda, decay)
	momentumScalar(v[i:], w[i:], g[i:], m, r, lambda, decay)
}

// momentumVec runs Momentum's AVX2 kernel (momentum_amd64.s) over the
// leading multiple of four elements and returns how many it updated: none
// without AVX2. Lengths are validated by the caller.
func momentumVec(v, w, g []float32, m, r, lambda float32, decay bool) int {
	if !useAVX2 {
		return 0
	}
	return momentumAVX2(v, w, g, m, r, lambda, decay)
}

// momentumScalar is Momentum's scalar loop. Each product is converted to
// float32 explicitly, which forbids the compiler from fusing it into the
// add that follows (arm64 would).
func momentumScalar(v, w, g []float32, m, r, lambda float32, decay bool) {
	w, g = w[:len(v)], g[:len(v)]
	for j := range v {
		grad := g[j]
		if decay {
			grad += float32(lambda * w[j])
		}
		v[j] = float32(m*v[j]) + float32(r*grad)
		w[j] -= v[j]
	}
}
