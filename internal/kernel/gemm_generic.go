//go:build !amd64

package kernel

// gemmTile is gemmRowBlock's register tile, which only the amd64 build has:
// here it covers no columns, and the per-step path does all of them.
func gemmTile(c, sc, bp []float32, n int) int { return 0 }

// ntTileCols returns how many leading columns of an n-column NT product
// GemmNTStrided runs through pairwiseDotTile: the multiple of eight below
// n, whose leaves here are the scalar dotTile of dot_generic.go.
func ntTileCols(n int) int { return n &^ 7 }
