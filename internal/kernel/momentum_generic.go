//go:build !amd64

package kernel

// momentumVec has no vector form on the portable build: it writes nothing
// and Momentum runs its scalar loop over the whole slice.
func momentumVec(v, w, g []float32, m, r, lambda float32, decay bool) int { return 0 }
