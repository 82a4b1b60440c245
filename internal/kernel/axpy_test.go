package kernel

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// axpyQuadScalar is the specification of axpyQuad: one IEEE binary32
// multiply and one add per element, rows independent, written without
// axpy.go's explicit conversions.
func axpyQuadScalar(c0, c1, c2, c3, b []float32, s0, s1, s2, s3 float32) {
	for j, bv := range b {
		c0[j] += s0 * bv
		c1[j] += s1 * bv
		c2[j] += s2 * bv
		c3[j] += s3 * bv
	}
}

// TestAxpyQuadMatchesScalar: axpyQuad, and the one-row axpy on each of its
// rows, equal the scalar loop bit for bit in every form the CPU runs (AVX2
// and the portable loops) at every length around the four-, eight-
// and sixteen-wide vector steps and their tail, on sub-slices at
// unaligned offsets, with ±0, denormal, Inf and NaN lanes in b and in c —
// and write nothing outside their rows. No lane adds a NaN product to a NaN in
// c: which of two NaN operands an x86 add returns is the instruction's
// operand order, which IEEE leaves open and the forms need not share.
func TestAxpyQuadMatchesScalar(t *testing.T) {
	eachForm(func(form string) { testAxpyQuadMatchesScalar(t, form) })
}

func testAxpyQuadMatchesScalar(t *testing.T, form string) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	denorm := math.Float32frombits(1)
	negZero := math.Float32frombits(0x80000000)
	specials := []float32{0, negZero, denorm, -denorm, inf, -inf, nan, math.MaxFloat32, -math.MaxFloat32}
	scales := [][4]float32{
		{1.5, -2, 0.25, 3},
		{denorm, -1e30, inf, -1},
		{-inf, 1e-30, -1, math.MaxFloat32},
	}
	const guard = 5 // sentinel elements either side of every row
	for n := 0; n <= 67; n++ {
		for _, off := range []int{0, 1, 2, 3} {
			for si, s := range scales {
				rnd := rng.New(uint64(n)<<16 | uint64(off)<<8 | uint64(si))
				// One backing array per row, so an out-of-row write shows.
				back := make([][]float32, 5) // c0..c3, b
				for r := range back {
					back[r] = exactVec(rnd, guard+off+n+guard)
				}
				b := back[4][guard+off : guard+off+n]
				for j := range b {
					if j%3 == 0 {
						b[j] = specials[(j/3+n)%len(specials)]
					}
					for r := 0; r < 4; r++ {
						if prod := s[r] * b[j]; j%5 == r && prod == prod {
							back[r][guard+off+j] = specials[(j/5+r+n)%len(specials)]
						}
					}
				}
				want := make([][]float32, 5)
				for r := range back {
					want[r] = append([]float32(nil), back[r]...)
				}
				row := func(set [][]float32, r int) []float32 { return set[r][guard+off : guard+off+n] }
				one := make([][]float32, 5)
				for r := range back {
					one[r] = append([]float32(nil), back[r]...)
				}
				axpyQuad(row(back, 0), row(back, 1), row(back, 2), row(back, 3), row(back, 4), s[0], s[1], s[2], s[3])
				for r := 0; r < 4; r++ {
					axpy(row(one, r), row(one, 4), s[r])
				}
				axpyQuadScalar(row(want, 0), row(want, 1), row(want, 2), row(want, 3), row(want, 4), s[0], s[1], s[2], s[3])
				for r := range back {
					if i := bitsEqual(back[r], want[r]); i >= 0 {
						t.Fatalf("%s n=%d off=%d scales=%v row %d elem %d: axpyQuad %x vs scalar %x",
							form, n, off, s, r, i-guard-off, math.Float32bits(back[r][i]), math.Float32bits(want[r][i]))
					}
					if i := bitsEqual(one[r], want[r]); i >= 0 {
						t.Fatalf("%s n=%d off=%d scale=%v row %d elem %d: axpy %x vs scalar %x",
							form, n, off, s[r], r, i-guard-off, math.Float32bits(one[r][i]), math.Float32bits(want[r][i]))
					}
				}
			}
		}
	}
}
