package kernel

import (
	"encoding/binary"
	"math"
	"testing"
)

// gemmSpec is the specification of GemmNN and GemmTN: C is scaled by beta
// (0 overwrites, 1 leaves it), then row i takes s·B[l] for l = 0..k-1 in
// ascending order with s = alpha·A[i][l], one rounded multiply and one
// rounded add per element, and a zero s skips its step.
func gemmSpec(m, n, k int, alpha float32, at func(i, l int) float32, b []float32, beta float32, c []float32) {
	for j := range c[:m*n] {
		switch beta {
		case 0:
			c[j] = 0
		case 1:
		default:
			c[j] *= beta
		}
	}
	for i := 0; i < m; i++ {
		for l := 0; l < k; l++ {
			s := alpha * at(i, l)
			if s == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				c[i*n+j] += float32(s * b[l*n+j])
			}
		}
	}
}

// FuzzGemmNN checks GemmNN and GemmTN — the register tile, axpyQuad, the
// one-row axpy and their zero skips — against the scalar loop of gemmSpec,
// in every form of the kernels the CPU runs (see eachForm). A NaN matches
// any NaN, as in FuzzGemmNT.
//
// The fuzzer picks m < 14, n < 50, k < 600 (so a product can span three
// k-tiles of gemmKC), a mask of zeroed A rows (bit i mod 16 zeroes row i),
// the bits of alpha and beta, and a byte string: A, B and C are filled from
// it read as float32 words, cycling. GemmTN reads op(A) at column offset 1
// of a k×(m+2) array whose other columns are NaN, so a read outside op(A)
// shows. The seeds below and the named inputs under
// testdata/fuzz/FuzzGemmNN cover m mod 4 ≠ 0, n below, at and across 16,
// k = 257 and 513, alpha and beta in {0, 1, other, NaN}, zero rows, lone
// zero scales (zero words and alpha·A underflowing to zero), and ±0, ±Inf
// and NaN in A, B and C; `go test` replays them all.
func FuzzGemmNN(f *testing.F) {
	bits := math.Float32bits
	words := func(ws ...uint32) []byte {
		var raw []byte
		for _, w := range ws {
			raw = binary.LittleEndian.AppendUint32(raw, w)
		}
		return raw
	}
	ordinary := words(0x3f800000, 0xc0490fdb, 0x3dcccccd, 0x40a00000, 0xbeaaaaab, 0x3f7ffffe, 0x42c80000)
	special := words(0x3f800000, 0x00000000, 0xc0490fdb, 0x80000000, 0x3dcccccd, 0x7f800000,
		0x40a00000, 0xff800000, 0xbeaaaaab, 0x7fc00000, 0x3f7ffffe, 0x00000001, 0x42c80000)
	lone := words(0x3f800000, 0xc0490fdb, 0x3dcccccd, 0x00000000, 0x40a00000, 0xbeaaaaab, 0x42c80000)
	tiny := words(0x1e3ce508, 0x3f800000, 0x9e3ce508, 0xc0400000, 0x3dcccccd) // ±1e-20 among ordinary
	for _, s := range []struct {
		m, n, k, zero uint16
		alpha, beta   float32
		raw           []byte
	}{
		{5, 37, 300, 0, 0.7, 0.3, ordinary},
		{8, 16, 27, 0, 1, 0, ordinary},
		{7, 33, 257, 0, 1, 1, special},
		{6, 23, 9, 0b10, -1.5, 0, special},
		{13, 49, 513, 0b1000100, 0.7, 2, ordinary},
		{9, 48, 40, 0, 1e-30, 0.3, tiny},
		{4, 17, 64, 0, 1, 0, lone},
		{12, 32, 72, 0b100000000001, 0, 0.5, ordinary},
		{3, 0, 5, 0, 1, 0.5, ordinary},
		{2, 5, 0, 0, 1, 0.5, ordinary},
	} {
		f.Add(s.m, s.n, s.k, s.zero, bits(s.alpha), bits(s.beta), s.raw)
	}
	f.Fuzz(func(t *testing.T, m16, n16, k16, zeroRows uint16, alphaBits, betaBits uint32, raw []byte) {
		m, n, k := int(m16%14), int(n16%50), int(k16%600)
		alpha, beta := math.Float32frombits(alphaBits), math.Float32frombits(betaBits)
		word := func(i int) float32 {
			if len(raw) < 4 {
				return 0
			}
			off := 4 * (i % (len(raw) / 4))
			return math.Float32frombits(binary.LittleEndian.Uint32(raw[off:]))
		}
		a := make([]float32, m*k)
		for i := range a {
			if zeroRows>>(i/k%16)&1 == 0 {
				a[i] = word(i)
			}
		}
		b, c := make([]float32, k*n), make([]float32, m*n)
		for i := range b {
			b[i] = word(m*k + i)
		}
		for i := range c {
			c[i] = word(m*k + k*n + i)
		}
		const i0 = 1
		lda := m + 2
		aT := make([]float32, k*lda)
		for i := range aT {
			aT[i] = float32(math.NaN())
		}
		for i := 0; i < m; i++ {
			for l := 0; l < k; l++ {
				aT[l*lda+i0+i] = a[i*k+l]
			}
		}
		want := append([]float32(nil), c...)
		gemmSpec(m, n, k, alpha, func(i, l int) float32 { return a[i*k+l] }, b, beta, want)

		eachForm(func(form string) {
			nn, tn := append([]float32(nil), c...), append([]float32(nil), c...)
			GemmNN(m, n, k, alpha, a, b, beta, nn)
			GemmTN(m, n, k, alpha, aT, lda, i0, b, beta, tn)
			for x, name := range []string{"GemmNN", "GemmTN"} {
				for j, v := range [2][]float32{nn, tn}[x] {
					if v != v && want[j] != want[j] {
						continue
					}
					if bits(v) != bits(want[j]) {
						t.Fatalf("%s %s m=%d n=%d k=%d: C[%d][%d] = %v (%08x), scalar loop %v (%08x)",
							form, name, m, n, k, j/n, j%n, v, bits(v), want[j], bits(want[j]))
					}
				}
			}
		})
	})
}

// FuzzGemmNT checks GemmNTStrided — the two-row tile and its one-row form
// over the leading multiple of eight columns, the one more tile over the
// last eight that stores only the n mod 8 it adds, the scalar pairwiseDot
// when n < 8 — against its definition, one pairwiseDot and one scaleAdd per
// element, in every form of the kernels the CPU runs (see eachForm: the
// AVX2 tile and its Go loop on amd64, the Go loops under GOARCH=386). A NaN
// matches any NaN: which of two NaN operands an x86 add returns is the
// instruction's operand order, not arithmetic (the GEMM goldens canonicalize
// NaN the same way).
//
// The fuzzer picks m < 10 and n < 20 (so every n mod 8 occurs), k ≤ 1728
// (fc1's input width), pads that widen the row strides lda and ldb past k
// as gemmNTSamples' block panels do, the bits of alpha, beta from {0, 1,
// −0.5}, and a byte string: the A and B windows and C are filled from it
// read as float32 words, cycling. The pads between the windows hold NaN, so
// a read outside a window shows; with beta 0, C starts as NaN, which must be
// overwritten (a column stored twice would scale it by beta twice); and the
// words around C must stay unwritten. The seeds below and the named inputs
// under testdata/fuzz/FuzzGemmNT cover k = 0–3, 127–129, 255–257, 576 and
// 1728, n < 8 and n mod 8 of 1 to 7, one row (the serve batch of one), odd
// m, windows, NaN payloads meeting across a split of the pairwise tree, a
// NaN in the base case's tail, Inf meeting zero or its own negation,
// signed-zero sums, subnormals and overflow; `go test` replays them all.
func FuzzGemmNT(f *testing.F) {
	bits := math.Float32bits
	words := func(ws ...uint32) []byte {
		var raw []byte
		for _, w := range ws {
			raw = binary.LittleEndian.AppendUint32(raw, w)
		}
		return raw
	}
	ordinary := words(0x3f800000, 0xc0490fdb, 0x3dcccccd, 0x40a00000, 0xbeaaaaab, 0x3f7ffffe, 0x42c80000)
	special := words(0x3f800000, 0x00000000, 0xc0490fdb, 0x80000000, 0x3dcccccd, 0x7f800000,
		0x40a00000, 0xff800000, 0xbeaaaaab, 0x7fc00000, 0x3f7ffffe, 0x00000001, 0x42c80000)
	for _, s := range []struct {
		m, n, k     uint16
		pads, betaI uint8
		alpha       float32
		raw         []byte
	}{
		{0, 5, 3, 0, 0, 1, ordinary},
		{3, 0, 3, 0, 1, 1, ordinary},
		{1, 8, 1, 0, 0, 1, ordinary},
		{2, 16, 0, 0, 2, 0.5, ordinary},
		{3, 9, 127, 0b0101, 1, -1.5, special},
		{9, 19, 128, 0, 0, 1, ordinary},
		{4, 12, 129, 0b1110, 2, 0.7, special},
		{5, 15, 1728, 0b0110, 1, 1, ordinary},
		{1, 14, 1728, 0, 0, 1, ordinary},
		{7, 13, 257, 0b0011, 0, 2, special},
		{6, 18, 576, 0b1001, 2, 1e-3, ordinary},
		{8, 10, 2, 0, 1, 1, special},
		{2, 11, 255, 0b0100, 0, 1, special},
		{3, 17, 256, 0, 1, 1, ordinary},
		{5, 7, 127, 0b0001, 2, 1, special},
		{1, 15, 128, 0, 0, 1, special},
	} {
		f.Add(s.m, s.n, s.k, s.pads, bits(s.alpha), s.betaI, s.raw)
	}
	f.Fuzz(func(t *testing.T, m16, n16, k16 uint16, pads uint8, alphaBits uint32, betaI uint8, raw []byte) {
		m, n, k := int(m16%10), int(n16%20), int(k16%1729)
		lda, ldb := k+int(pads&3), k+int(pads>>2&3)
		alpha, beta := math.Float32frombits(alphaBits), []float32{0, 1, -0.5}[betaI%3]
		word := func(i int) float32 {
			if len(raw) < 4 {
				return 0
			}
			off := 4 * (i % (len(raw) / 4))
			return math.Float32frombits(binary.LittleEndian.Uint32(raw[off:]))
		}
		pad := math.Float32frombits(0x7fc0dead)
		// window lays out rows rows of k words from word(first) at stride
		// ld, NaN in between, ending with the last row's window.
		window := func(rows, ld, first int) []float32 {
			if rows == 0 {
				return nil
			}
			w := make([]float32, (rows-1)*ld+k)
			for i := range w {
				w[i] = pad
			}
			for r := 0; r < rows; r++ {
				for l := 0; l < k; l++ {
					w[r*ld+l] = word(first + r*k + l)
				}
			}
			return w
		}
		a, b := window(m, lda, 0), window(n, ldb, m*k)
		const guard = 8
		sentinel := math.Float32frombits(0x7fc0beef)
		c0 := make([]float32, guard+m*n+guard)
		for i := range c0 {
			c0[i] = sentinel
		}
		for i := 0; i < m*n; i++ {
			if beta == 0 {
				c0[guard+i] = float32(math.NaN())
			} else {
				c0[guard+i] = word(m*k + n*k + i)
			}
		}
		want := append([]float32(nil), c0...)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				e := &want[guard+i*n+j]
				*e = scaleAdd(*e, pairwiseDot(a[i*lda:i*lda+k], b[j*ldb:j*ldb+k]), alpha, beta)
			}
		}

		eachForm(func(form string) {
			c := append([]float32(nil), c0...)
			GemmNTStrided(m, n, k, alpha, a, lda, b, ldb, beta, c[guard:guard+m*n])
			for x, v := range c {
				if v != v && want[x] != want[x] && x >= guard && x < guard+m*n {
					continue
				}
				if bits(v) != bits(want[x]) {
					t.Fatalf("%s m=%d n=%d k=%d lda=%d ldb=%d: word %d of C (guard %d) = %v (%08x), definition %v (%08x)",
						form, m, n, k, lda, ldb, x, guard, v, bits(v), want[x], bits(want[x]))
				}
			}
		})
	})
}
