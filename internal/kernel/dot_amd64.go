//go:build amd64

package kernel

// dotQuad returns pairwiseDot's base case for four columns sharing one row:
// s_c = Σ a[i]·b_c[i] over len(a) ≤ blockN elements, summed exactly as
// pairwiseDot sums a short block (four strided partial sums, the tail into
// the first, finished as (s0+s1)+(s2+s3)). dot_amd64.s keeps the four
// partial sums of a column in the lanes of one SSE register; the scalar
// twin in dot_generic.go spells the same arithmetic out. Every b_c must have
// len(a) elements.
//
//go:noescape
func dotQuad(a, b0, b1, b2, b3 []float32) (s0, s1, s2, s3 float32)
