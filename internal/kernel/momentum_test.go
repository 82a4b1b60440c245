package kernel

import (
	"encoding/binary"
	"math"
	"testing"
)

// momentumLoop is the Go loop the optimizer ran before Momentum existed,
// kept verbatim as the specification every form is held to.
func momentumLoop(v, w, g []float32, m, r, lambda float32, decay bool) {
	for j := range v {
		grad := g[j]
		if decay {
			grad += lambda * w[j]
		}
		v[j] = m*v[j] + r*grad
		w[j] -= v[j]
	}
}

// FuzzMomentum checks Momentum in every form the CPU runs (AVX2 and the
// portable loop; see eachForm) against momentumLoop bit for bit. The AVX2
// form issues the loop's operations with the first operands the compiler
// gives it, but that choice is the compiler's (a -race build commutes some
// adds), so a NaN matches any NaN, as in FuzzGemmNN. g is never written,
// and neither is anything past the end of v and w.
//
// The fuzzer picks a length below 40 (eight-lane passes, a four-lane pass
// and a scalar tail of 0–3), the bits of m, r and λ, decay, and a byte
// string read as float32 words, cycling, for v, w and g. The seeds below
// and the named inputs under testdata/fuzz/FuzzMomentum cover ±0 (a −0
// gradient survives only without decay), ±Inf, NaN payloads in the data
// and in the scalars, subnormals, overflow, decay on and off, and lengths
// on both sides of 4 and 8; `go test` replays them all.
func FuzzMomentum(f *testing.F) {
	bits := math.Float32bits
	words := func(ws ...uint32) []byte {
		var raw []byte
		for _, w := range ws {
			raw = binary.LittleEndian.AppendUint32(raw, w)
		}
		return raw
	}
	ordinary := words(0x3f800000, 0xc0490fdb, 0x3dcccccd, 0x40a00000, 0xbeaaaaab, 0x3f7ffffe, 0x42c80000)
	special := words(0x3f800000, 0x00000000, 0x80000000, 0x7f800000, 0xff800000, 0x7fc00001,
		0xffa00000, 0x00000001, 0x80000001, 0x7f7fffff, 0xc0490fdb)
	for _, s := range []struct {
		n        uint8
		m, r, wd float32
		decay    bool
		raw      []byte
	}{
		{3, 0.9, 0.1, 5e-4, true, ordinary},
		{4, 0.9, 0.1, 5e-4, false, special},
		{7, 0.9, 1e-3, 1e-4, true, special},
		{8, 0.9, 0.1, 0, false, special},
		{9, 0.5, 2, 5e-4, true, special},
		{12, 0.9, 1e38, 1e38, true, special},
		{39, 0.9, 0.1, 5e-4, true, special},
		{17, float32(math.NaN()), -1, float32(math.Inf(1)), true, special},
	} {
		f.Add(s.n, bits(s.m), bits(s.r), bits(s.wd), s.decay, s.raw)
	}
	f.Fuzz(func(t *testing.T, n8 uint8, mBits, rBits, lambdaBits uint32, decay bool, raw []byte) {
		n := int(n8 % 40)
		m, r, lambda := math.Float32frombits(mBits), math.Float32frombits(rBits), math.Float32frombits(lambdaBits)
		word := func(i int) float32 {
			if len(raw) < 4 {
				return 1
			}
			off := 4 * (i % (len(raw) / 4))
			return math.Float32frombits(binary.LittleEndian.Uint32(raw[off:]))
		}
		// One guard element past each slice's end shows a stray write.
		v0, w0, g0 := make([]float32, n+1), make([]float32, n+1), make([]float32, n+1)
		for i := range v0 {
			v0[i], w0[i], g0[i] = word(3*i), word(3*i+1), word(3*i+2)
		}
		wantV, wantW := append([]float32(nil), v0...), append([]float32(nil), w0...)
		momentumLoop(wantV[:n], wantW[:n], g0[:n], m, r, lambda, decay)
		eachForm(func(form string) {
			v, w, g := append([]float32(nil), v0...), append([]float32(nil), w0...), append([]float32(nil), g0...)
			Momentum(v[:n], w[:n], g[:n], m, r, lambda, decay)
			if j := bitsEqual(g, g0); j >= 0 {
				t.Fatalf("%s n=%d: g[%d] written", form, n, j)
			}
			for x, want := range [2][]float32{wantV, wantW} {
				for j, v := range [2][]float32{v, w}[x] {
					if v != v && want[j] != want[j] {
						continue
					}
					if math.Float32bits(v) != math.Float32bits(want[j]) {
						t.Fatalf("%s n=%d m=%v r=%v λ=%v decay=%v: %s[%d] is %08x, loop %08x",
							form, n, m, r, lambda, decay, "vw"[x:x+1], j, math.Float32bits(v), math.Float32bits(want[j]))
					}
				}
			}
		})
	})
}
