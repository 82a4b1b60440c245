//go:build !amd64

package kernel

// addSums joins the sums of a pairwise tree's two halves: s[i] = r[i] +
// s[i], r the right half's sums. s must have len(r) elements.
func addSums(s, r []float32) {
	for i, v := range r {
		s[i] = v + s[i]
	}
}
