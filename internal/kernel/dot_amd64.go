//go:build amd64

package kernel

// addSums joins the sums of a pairwise tree's two halves: s[i] = r[i] +
// s[i], r the right half's sums and the add's first operand (an x86 add of
// two NaNs returns its first operand's payload). pairwiseDotTile joins
// through it (dot_amd64.s). s must have len(r) elements.
//
//go:noescape
func addSums(s, r []float32)

//go:noescape
func dotTileAVX2(s *[16]float32, a0, a1, b []float32, ldb, rows int)
