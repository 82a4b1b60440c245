//go:build amd64

package kernel

//go:noescape
func momentumAVX2(v, w, g []float32, m, r, lambda float32, decay bool) int
