//go:build !amd64

package kernel

// useAVX2 is false off amd64: the compiler drops every branch that tests it,
// so the AVX2 stand-ins below are never called and each kernel runs its Go
// loop. A call that misses the guard panics rather than do nothing.
const useAVX2 = false

const offAMD64 = "kernel: AVX2 kernel called off amd64"

func axpyQuadAVX2(c0, c1, c2, c3, b []float32, s0, s1, s2, s3 float32) { panic(offAMD64) }

func axpyAVX2(c, b []float32, s float32) { panic(offAMD64) }

func dotTileAVX2(s *[16]float32, a0, a1, b []float32, ldb, rows int) { panic(offAMD64) }

func gemmTileAVX2(c, sc, bp []float32, n, cols int) { panic(offAMD64) }

func roundHalfAVX2(x []float32) int { panic(offAMD64) }

func canonicalAVX2(dst []float32, srcs [][]float32, scales []float64, half bool) int { panic(offAMD64) }

func momentumAVX2(v, w, g []float32, m, r, lambda float32, decay bool) int { panic(offAMD64) }

func reluAVX2(dst, src []float32) int { panic(offAMD64) }

func reluBackwardAVX2(dx, y, dy []float32) int { panic(offAMD64) }

func maxPool2x2AVX2(out []float32, arg []int32, in []float32, n, w, base int) { panic(offAMD64) }

func normalizeAVX2(y, xhat, x []float32, mu, inv, gamma, beta float32) int { panic(offAMD64) }

func normalizeGradAVX2(dx, dy, xhat []float32, gi, meanDy, meanDyXhat float32) int {
	panic(offAMD64)
}

func sumSqLeavesAVX2(x []float32, a int) (ls, lq, rs, rq float32) { panic(offAMD64) }

func sumDotLeavesAVX2(x, y []float32, a int) (ls, ld, rs, rd float32) { panic(offAMD64) }
