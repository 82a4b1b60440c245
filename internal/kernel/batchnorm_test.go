package kernel

import (
	"encoding/binary"
	"math"
	"testing"
)

// x86 arithmetic as the kernels' scalar expressions spell it: when an
// operand is NaN the result is the first NaN operand, quieted, so the
// operand order of each step decides which payload survives two NaNs
// meeting. Elsewhere the hardware's own rounded result (a fresh NaN is the
// default one).
func quietFirst(a, b, r float32) float32 {
	switch {
	case a != a:
		return math.Float32frombits(math.Float32bits(a) | 0x00400000)
	case b != b:
		return math.Float32frombits(math.Float32bits(b) | 0x00400000)
	}
	return r
}

func sub32(a, b float32) float32 { return quietFirst(a, b, a-b) }
func mul32(a, b float32) float32 { return quietFirst(a, b, float32(a*b)) }
func add32(a, b float32) float32 { return quietFirst(a, b, a+b) }

// FuzzBatchNorm holds Normalize (with and without x̂) and NormalizeGrad,
// in every form the CPU runs (see eachForm), to their scalar expressions
// bit for bit, NaN payloads included:
//
//	x̂ = (x − μ)·inv,  y = x̂·γ + β
//	dx = ((dy − meanDy) − x̂·meanDyXhat)·gi
//
// each step rounded, with the element (or the running value) as the first
// operand and the channel constant as the second, which is how the
// compiled Go loops order them and the order the AVX2 kernels keep. It
// also checks y written over x, and that nothing past a slice's length is
// written. The gradient takes gi = γ, meanDy = β, meanDyXhat = inv and the
// x values as x̂, so a NaN scalar meets a NaN element in every step.
//
// The fuzzer picks a length (0–40, or 41–254: eight-lane passes and every
// tail of 0–7), the bits of μ, inv, γ and β, and a byte string read as
// float32 words, cycling, for x and dy. The seeds below and the named
// inputs under testdata/fuzz/FuzzBatchNorm cover ±0, ±Inf, Inf − Inf, NaN
// payloads in x, dy, γ and β and NaNs meeting in each step, subnormals and
// overflow; `go test` replays them all.
func FuzzBatchNorm(f *testing.F) {
	words := func(ws ...uint32) []byte {
		var raw []byte
		for _, w := range ws {
			raw = binary.LittleEndian.AppendUint32(raw, w)
		}
		return raw
	}
	ordinary := words(0x3f800000, 0xc0490fdb, 0x3dcccccd, 0x40a00000, 0xbeaaaaab, 0x3f7ffffe, 0x42c80000)
	special := words(0x3f800000, 0x00000000, 0x80000000, 0x7f800000, 0xff800000, 0x7fc00001,
		0xffa00000, 0x00000001, 0x80000001, 0x7f7fffff, 0xc0490fdb, 0x807fffff, 0x7f812345)
	for _, s := range []struct {
		n                    uint8
		mu, inv, gamma, beta uint32
		raw                  []byte
	}{
		{0, 0x3f000000, 0x40000000, 0x3fc00000, 0xbe800000, ordinary},
		{1, 0x3f000000, 0x40000000, 0x3fc00000, 0xbe800000, special},
		{7, 0x3f000000, 0x40000000, 0x3fc00000, 0xbe800000, special},
		{8, 0x3f000000, 0x40000000, 0x3fc00000, 0xbe800000, special},
		{9, 0xbdcccccd, 0x3f9e0652, 0x80000000, 0x00000000, special},
		{15, 0x7f800000, 0x3f800000, 0x3f800000, 0xff800000, special},
		{16, 0x7fc00011, 0x7fa00022, 0xffc00033, 0x7f800044, special},
		{23, 0x00000001, 0x7f7fffff, 0x00800000, 0x80000001, special},
		{31, 0x3f000000, 0x3f800000, 0xffa00055, 0x7fc00066, ordinary},
		{40, 0x3f000000, 0x40000000, 0x3fc00000, 0xbe800000, ordinary},
		{99, 0xff800000, 0x00000000, 0x7fc00077, 0x3f800000, special},
	} {
		f.Add(s.n, s.mu, s.inv, s.gamma, s.beta, s.raw)
	}
	f.Fuzz(func(t *testing.T, n uint8, muBits, invBits, gammaBits, betaBits uint32, raw []byte) {
		size := int(n % 41)
		if n >= 41 {
			size = int(n)
		}
		if len(raw) < 4 {
			raw = words(0x3f800000)
		}
		word := func(i int) float32 {
			i %= len(raw) / 4
			return math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		x, dy := make([]float32, size), make([]float32, size)
		for i := range x {
			x[i], dy[i] = word(2*i), word(2*i+1)
		}
		f32 := math.Float32frombits
		mu, inv, gamma, beta := f32(muBits), f32(invBits), f32(gammaBits), f32(betaBits)

		wantY, wantXhat, wantDx := make([]uint32, size), make([]uint32, size), make([]uint32, size)
		for i, v := range x {
			xh := mul32(sub32(v, mu), inv)
			wantXhat[i] = math.Float32bits(xh)
			wantY[i] = math.Float32bits(add32(mul32(xh, gamma), beta))
			wantDx[i] = math.Float32bits(mul32(sub32(sub32(dy[i], beta), mul32(v, inv)), gamma))
		}

		// guarded returns a slice of size elements whose backing array runs
		// on past it with sentinels, and the check that they are intact.
		const guard = 9
		guarded := func() ([]float32, func(string)) {
			buf := make([]float32, size+guard)
			for i := size; i < len(buf); i++ {
				buf[i] = f32(0x7fc0dead)
			}
			return buf[:size], func(what string) {
				for i := size; i < len(buf); i++ {
					if math.Float32bits(buf[i]) != 0x7fc0dead {
						t.Fatalf("%s wrote element %d past its length %d", what, i, size)
					}
				}
			}
		}
		check := func(form, what string, got []float32, want []uint32) {
			for i := range want {
				if g := math.Float32bits(got[i]); g != want[i] {
					t.Fatalf("%s %s lane %d of %d: x %08x dy %08x gave %08x, want %08x (μ %08x inv %08x γ %08x β %08x)",
						form, what, i, size, math.Float32bits(x[i]), math.Float32bits(dy[i]), g, want[i], muBits, invBits, gammaBits, betaBits)
				}
			}
		}
		eachForm(func(form string) {
			y, yOK := guarded()
			xhat, xhatOK := guarded()
			Normalize(y, xhat, x, mu, inv, gamma, beta)
			yOK(form + " Normalize's y")
			xhatOK(form + " Normalize's x̂")
			check(form, "Normalize y", y, wantY)
			check(form, "Normalize x̂", xhat, wantXhat)

			y, yOK = guarded()
			Normalize(y, nil, x, mu, inv, gamma, beta)
			yOK(form + " eval Normalize")
			check(form, "eval Normalize y", y, wantY)

			inPlace := append([]float32(nil), x...)
			Normalize(inPlace, nil, inPlace, mu, inv, gamma, beta)
			check(form, "in-place Normalize y", inPlace, wantY)

			dx, dxOK := guarded()
			NormalizeGrad(dx, dy, x, gamma, beta, inv)
			dxOK(form + " NormalizeGrad")
			check(form, "NormalizeGrad dx", dx, wantDx)
		})
	})
}

func TestNormalizeLengthMismatchPanics(t *testing.T) {
	for name, call := range map[string]func(){
		"Normalize y":        func() { Normalize(make([]float32, 3), nil, make([]float32, 4), 0, 1, 1, 0) },
		"Normalize xhat":     func() { Normalize(make([]float32, 4), make([]float32, 3), make([]float32, 4), 0, 1, 1, 0) },
		"NormalizeGrad dy":   func() { NormalizeGrad(make([]float32, 3), make([]float32, 4), make([]float32, 3), 1, 0, 0) },
		"NormalizeGrad xhat": func() { NormalizeGrad(make([]float32, 3), make([]float32, 3), make([]float32, 4), 1, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted mismatched lengths", name)
				}
			}()
			call()
		}()
	}
}
