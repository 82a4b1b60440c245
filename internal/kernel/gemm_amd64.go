//go:build amd64

package kernel

//go:noescape
func gemmTileAVX2(c, sc, bp []float32, n, cols int)
