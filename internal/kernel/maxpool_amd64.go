//go:build amd64

package kernel

//go:noescape
func maxPool2x2AVX2(out []float32, arg []int32, in []float32, n, w, base int)
