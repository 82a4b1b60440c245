//go:build amd64

package kernel

// dotQuad returns pairwiseDot's base case for four columns sharing one row:
// s_c = Σ a[i]·b_c[i] over len(a) ≤ blockN elements, summed exactly as
// pairwiseDot sums a short block (four strided partial sums, the tail into
// the first, finished as (s0+s1)+(s2+s3)). dot_amd64.s keeps the four
// partial sums of a column in the lanes of one SSE register; the scalar
// twin in dot_generic.go spells the same arithmetic out. It is the NT leaf
// for the columns after the last multiple of eight (see GemmNTStrided).
// Every b_c must have len(a) elements.
//
//go:noescape
func dotQuad(a, b0, b1, b2, b3 []float32) (s0, s1, s2, s3 float32)

// addSums joins the sums of a pairwise tree's two halves: s[i] = r[i] +
// s[i], r the right half's sums and the add's first operand (an x86 add of
// two NaNs returns its first operand's payload). pairwiseDotTile joins
// through it; pairwiseDotQuad's inlined adds compile to the same order
// (dot_amd64.s). s must have len(r) elements.
//
//go:noescape
func addSums(s, r []float32)

//go:noescape
func dotTileAVX2(s *[16]float32, a0, a1, b []float32, ldb, rows int)
