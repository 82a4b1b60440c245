//go:build amd64

package kernel

//go:noescape
func axpyQuadAVX2(c0, c1, c2, c3, b []float32, s0, s1, s2, s3 float32)

//go:noescape
func axpyAVX2(c, b []float32, s float32)
