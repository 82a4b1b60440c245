//go:build !amd64

package kernel

// roundHalfVec has no vector form on the portable build: it writes nothing
// and RoundHalf runs its scalar loop over the whole slice.
func roundHalfVec(x []float32) int { return 0 }
