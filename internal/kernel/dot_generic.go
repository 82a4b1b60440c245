//go:build !amd64

package kernel

// dotQuad returns pairwiseDot's base case for four columns sharing one row:
// s_c = Σ a[i]·b_c[i] over len(a) ≤ blockN elements, summed exactly as
// pairwiseDot sums a short block. This is the portable scalar form of the
// SSE kernel in dot_amd64.s; both perform the same IEEE multiplies and adds
// in the same order, so they produce identical bits. Every b_c must have
// len(a) elements.
func dotQuad(a, b0, b1, b2, b3 []float32) (s0, s1, s2, s3 float32) {
	return baseDot(a, b0), baseDot(a, b1), baseDot(a, b2), baseDot(a, b3)
}

// addSums joins the sums of a pairwise tree's two halves: s[i] = r[i] +
// s[i], r the right half's sums. s must have len(r) elements.
func addSums(s, r []float32) {
	for i, v := range r {
		s[i] = v + s[i]
	}
}
