//go:build amd64

package kernel

//go:noescape
func roundHalfAVX2(x []float32) int

//go:noescape
func canonicalAVX2(dst []float32, srcs [][]float32, scales []float64, half bool) int
