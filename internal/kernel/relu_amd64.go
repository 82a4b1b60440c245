//go:build amd64

package kernel

//go:noescape
func reluAVX2(dst, src []float32) int

//go:noescape
func reluBackwardAVX2(dx, y, dy []float32) int
