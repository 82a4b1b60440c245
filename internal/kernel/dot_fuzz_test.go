package kernel

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzDotQuad checks the NT product's four-column tail: one row x against
// twelve columns through GemmNTStrided, where the first tile covers columns
// 0–7 and one more tile over columns 4–11 stores only the last four, must
// give each column the bits of a scalar pairwiseDot over the same operands,
// in every form the CPU runs (see eachForm). The fuzzer picks a length and
// a byte string; the operands are filled from the bytes read as float32
// words, cycling. A NaN matches any NaN, as in FuzzGemmNT.
//
// The seeds cover the base case's short lengths (0–3), both sides of the
// blockN split (127–129, 255–257) and a conv-sized 576, over words holding
// ±0, ±Inf, NaN, subnormals and ordinary values; the named inputs under
// testdata/fuzz/FuzzDotQuad add signed-zero sums, Inf meeting zero or its
// own negation, a NaN in the tail, and overflow. `go test` replays all of
// them on every run; `go test -fuzz=FuzzDotQuad ./internal/kernel` explores
// from them.
func FuzzDotQuad(f *testing.F) {
	words := []uint32{
		0x00000000, // +0
		0x80000000, // -0
		0x7f800000, // +Inf
		0xff800000, // -Inf
		0x7fc00000, // NaN
		0x00000001, // min subnormal
		0x807fffff, // -max subnormal
		0x3f800000, // 1
		0xc0490fdb, // -π
		0x3dcccccd, // 0.1
		0x7f7fffff, // max finite
		0x2f800000, // 2^-32
	}
	// special puts one special word among ordinary ones; ordinary holds only
	// finite normal values, so its sums stay finite and every bit counts.
	special := make([]byte, 0, 4*len(words))
	for _, w := range words {
		special = binary.LittleEndian.AppendUint32(special, w)
	}
	var ordinary []byte
	for _, w := range []uint32{0x3f800000, 0xc0490fdb, 0x3dcccccd, 0x40a00000, 0xbeaaaaab, 0x3f7ffffe, 0x42c80000} {
		ordinary = binary.LittleEndian.AppendUint32(ordinary, w)
	}
	for _, n := range []uint16{0, 1, 2, 3, 127, 128, 129, 255, 256, 257, 576} {
		f.Add(n, ordinary)
		f.Add(n, special)
	}
	f.Fuzz(func(t *testing.T, n uint16, raw []byte) {
		k := int(n % 1025)
		word := func(i int) float32 {
			if len(raw) < 4 {
				return 0
			}
			off := 4 * (i % (len(raw) / 4))
			return math.Float32frombits(binary.LittleEndian.Uint32(raw[off:]))
		}
		// The row and the columns are windows of one buffer at stride k+1,
		// so the column starts fall at every alignment the vector loads
		// can meet.
		const cols = 12
		ldb := k + 1
		buf := make([]float32, ldb*(cols+1))
		for i := range buf {
			buf[i] = word(i)
		}
		x, y := buf[:k], buf[ldb:]
		eachForm(func(form string) {
			got := make([]float32, cols)
			GemmNTStrided(1, cols, k, 1, x, k, y, ldb, 0, got)
			for c, g := range got {
				want := pairwiseDot(x, y[c*ldb:c*ldb+k])
				if g != g && want != want {
					continue
				}
				if math.Float32bits(g) != math.Float32bits(want) {
					t.Fatalf("%s len %d column %d: GemmNTStrided %v (%08x), pairwiseDot %v (%08x)",
						form, k, c, g, math.Float32bits(g), want, math.Float32bits(want))
				}
			}
		})
	})
}
