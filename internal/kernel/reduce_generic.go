//go:build !amd64

package kernel

// canonicalVec has no vector form on the portable build: it writes nothing
// and CanonicalAccumulate's blocked loop takes every coordinate.
func canonicalVec(dst []float32, srcs [][]float32, scales []float64) int { return 0 }
