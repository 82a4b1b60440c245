//go:build amd64

package kernel

// canonicalVec runs CanonicalAccumulate over the leading multiple of four
// coordinates with SSE2 (reduce_amd64.s) and returns how many it wrote. Its
// float64 arithmetic is the Go loop's, element for element and in source
// order, so the bits match. Arguments are CanonicalAccumulate's, validated.
//
//go:noescape
func canonicalVec(dst []float32, srcs [][]float32, scales []float64) int
