package kernel

import "math"

// MaxPool2x2 pools rows of n outputs over 2×2 windows at stride 2, reading
// an input of row width w: output j of row r, out[r·n+j], is the first
// strict maximum of in[i], in[i+1], in[i+w] and in[i+w+1] at i = 2r·w + 2j,
// scanned in that order from −Inf, so ties go to the first tap, NaN never
// wins and a window of only NaN or −Inf gives −Inf. When arg is non-nil,
// arg[r·n+j] receives base plus the chosen tap's index in in, or −1 when no
// tap beat −Inf; the indices must fit in an int32. With AVX2, maxPoolVec
// pools every row, eight outputs at a time; otherwise the firstMax tree
// below takes every output.
func MaxPool2x2(out []float32, arg []int32, in []float32, n, w, base int) {
	rows := 0
	if n > 0 {
		rows = len(out) / n
	}
	if n < 1 || rows*n != len(out) || (arg != nil && len(arg) != len(out)) || w < 2*n ||
		(rows > 0 && len(in) < (2*rows-1)*w+2*n) {
		panic("kernel: MaxPool2x2 operand length mismatch")
	}
	if maxPoolVec(out, arg, in, n, w, base) {
		return
	}
	negInf := float32(math.Inf(-1))
	for r := 0; r < rows; r++ {
		for j := 0; j < n; j++ {
			i0 := 2*r*w + 2*j
			i1 := i0 + w
			r0, r1 := in[i0:i0+2], in[i1:i1+2]
			m0, j0 := firstMax(negInf, -1, r0[0], i0)
			m0, j0 = firstMax(m0, j0, r0[1], i0+1)
			m1, j1 := firstMax(negInf, -1, r1[0], i1)
			m1, j1 = firstMax(m1, j1, r1[1], i1+1)
			best, idx := firstMax(m0, j0, m1, j1)
			o := r*n + j
			out[o] = best
			if arg != nil {
				if idx >= 0 {
					idx += base
				}
				arg[o] = int32(idx)
			}
		}
	}
}

// firstMax returns (v, j) if v > m and (m, i) otherwise: one step of a
// first-strict-max scan (ties keep m, NaN never replaces it), with the
// compare turned into a mask that selects the bits, not a branch — a
// pooling window's compares are as random as its values. The 2×2 window
// runs it as a two-level tree: each row takes its first strict max, and the
// second row replaces the first only on a strict >. "First strict max" is
// associative with left priority, so the tree picks the tap the row-major
// scan picks. It is the Go twin of maxPool2x2AVX2 (maxpool_amd64.s), whose
// VMAXPS with v as the first source and m as the second is this function
// lane for lane.
func firstMax(m float32, i int, v float32, j int) (float32, int) {
	var c int
	if v > m {
		c = -1
	}
	mb, vb := math.Float32bits(m), math.Float32bits(v)
	return math.Float32frombits(mb ^ (mb^vb)&uint32(c)), i ^ (i^j)&c
}

// maxPoolVec runs MaxPool2x2's AVX2 kernel over every row and reports
// whether it did: it writes nothing without AVX2. The kernel pools eight
// outputs per instruction from sixteen floats of each input row, split into
// even and odd taps; a row of eight or more ends with one more tile over its
// last eight outputs (each output is a pure function of its window, so
// writing one twice is exact), and a shorter row runs one tile through
// masked loads and stores that touch nothing past the row. The operands are
// MaxPool2x2's, validated.
func maxPoolVec(out []float32, arg []int32, in []float32, n, w, base int) bool {
	if !useAVX2 || len(out) == 0 {
		return false
	}
	maxPool2x2AVX2(out, arg, in, n, w, base)
	return true
}
