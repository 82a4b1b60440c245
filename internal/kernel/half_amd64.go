//go:build amd64

package kernel

// roundHalfVec runs RoundHalf's vector kernels (half_amd64.s) over the
// leading multiple of four elements — AVX2 over the multiple of eight where
// the CPU has it, then SSE2 over what remains of four — and returns how
// many it wrote; RoundHalf finishes the tail with the scalar path. Both
// kernels round lane by lane, branches turned into mask selects, so every
// element's bits are those of HalfToFloat32(Float32ToHalf(x)), which
// TestBatchedConvertersMatchScalar and FuzzHalfConverters check.
func roundHalfVec(x []float32) int {
	n := 0
	if useAVX2 {
		n = roundHalfAVX2(x)
	}
	return n + roundHalfSSE(x[n:])
}

// canonicalHalfVec runs CanonicalAccumulateHalf over the leading multiple
// of four coordinates (half_amd64.s), eight at a time with AVX2 where the
// CPU has it, and returns how many it wrote. Arguments are validated by the
// caller, scales non-nil.
func canonicalHalfVec(dst []float32, srcs [][]float32, scales []float64) int {
	if useAVX2 {
		return canonicalHalfAVX2(dst, srcs, scales)
	}
	return canonicalHalfSSE(dst, srcs, scales)
}

//go:noescape
func roundHalfSSE(x []float32) int

//go:noescape
func roundHalfAVX2(x []float32) int

//go:noescape
func canonicalHalfSSE(dst []float32, srcs [][]float32, scales []float64) int

//go:noescape
func canonicalHalfAVX2(dst []float32, srcs [][]float32, scales []float64) int
