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
// On amd64 momentumVec (momentum_amd64.s) runs the leading multiple of four
// elements, eight lanes at a time with AVX2 where the CPU has it and four
// with SSE otherwise; momentumScalar takes the tail, and every element on
// the portable build. No form uses FMA: each does the rounded multiplies
// and adds above, in this order, so every form gives the same bits. The
// vector forms also put first the operands the compiled scalar loop puts
// first, so when two NaNs meet they keep the same one (FuzzMomentum holds
// AVX2 to SSE bit for bit, NaN payloads included).
func Momentum(v, w, g []float32, m, r, lambda float32, decay bool) {
	if len(w) != len(v) || len(g) != len(v) {
		panic("kernel: Momentum length mismatch")
	}
	i := momentumVec(v, w, g, m, r, lambda, decay)
	momentumScalar(v[i:], w[i:], g[i:], m, r, lambda, decay)
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
