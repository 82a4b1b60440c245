//go:build amd64

package kernel

// momentumVec runs Momentum over the leading multiple of four elements
// (momentum_amd64.s), eight lanes at a time with AVX2 where the CPU has it,
// and returns how many it updated. Lengths are validated by the caller.
func momentumVec(v, w, g []float32, m, r, lambda float32, decay bool) int {
	if useAVX2 {
		return momentumAVX2(v, w, g, m, r, lambda, decay)
	}
	return momentumSSE(v, w, g, m, r, lambda, decay)
}

//go:noescape
func momentumSSE(v, w, g []float32, m, r, lambda float32, decay bool) int

//go:noescape
func momentumAVX2(v, w, g []float32, m, r, lambda float32, decay bool) int
