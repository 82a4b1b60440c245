//go:build amd64

package kernel

// gemmTile runs gemmRowBlock's register tile (gemm_amd64.s) over the
// leading multiple of 16 of the n columns of the four C rows c and returns
// how many columns it covered: none without AVX2 or when n < 16. Every
// scale in sc must be non-zero.
func gemmTile(c, sc, bp []float32, n int) int {
	cols := n &^ 15
	if !useAVX2 || cols == 0 {
		return 0
	}
	gemmTileAVX2(c[:4*n], sc, bp[:len(sc)/4*n], n, cols)
	return cols
}

//go:noescape
func gemmTileAVX2(c, sc, bp []float32, n, cols int)

// ntTileCols returns how many leading columns of an n-column NT product
// GemmNTStrided runs through pairwiseDotTile: the multiple of eight below n
// with AVX2, none without (the SSE build keeps dotQuad for every column).
func ntTileCols(n int) int {
	if !useAVX2 {
		return 0
	}
	return n &^ 7
}
