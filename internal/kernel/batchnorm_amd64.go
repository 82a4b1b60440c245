//go:build amd64

package kernel

//go:noescape
func normalizeAVX2(y, xhat, x []float32, mu, inv, gamma, beta float32) int

//go:noescape
func normalizeGradAVX2(dx, dy, xhat []float32, gi, meanDy, meanDyXhat float32) int

//go:noescape
func sumSqLeavesAVX2(x []float32, a int) (ls, lq, rs, rq float32)

//go:noescape
func sumDotLeavesAVX2(x, y []float32, a int) (ls, ld, rs, rd float32)
