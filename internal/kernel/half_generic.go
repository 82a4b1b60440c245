//go:build !amd64

package kernel

// roundHalfVec has no vector form on the portable build: it writes nothing
// and RoundHalf runs its scalar loop over the whole slice.
func roundHalfVec(x []float32) int { return 0 }

// canonicalHalfVec has no vector form on the portable build: it writes
// nothing and CanonicalAccumulateHalf's blocked loop takes every coordinate.
func canonicalHalfVec(dst []float32, srcs [][]float32, scales []float64) int { return 0 }
