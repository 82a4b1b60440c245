package kernel

import (
	"math"
	"testing"
)

// FuzzReLU holds ReLU and ReLUBackward to their scalar rules bit for bit,
// x > 0 ? x : +0 and 0 < y ? dy : +0, in every form the CPU runs (see
// eachForm), on vectors built from two fuzzed bit patterns: the patterns,
// their negations and a few fixed edge values cycle through every lane of
// the AVX2 kernels, and the length (0–9 plus the fuzzed extra) lands on
// each tail length. It checks a separate destination and the in-place form.
//
// The seeds cover NaN with payloads of both signs, ±0, ± subnormals, ±Inf
// and ordinary values; `go test` replays them on every run (under
// GOARCH=386 too, where the scalar loops take every element), `go test
// -fuzz=FuzzReLU ./internal/kernel` explores from them.
func FuzzReLU(f *testing.F) {
	seeds := []uint32{
		0x00000000, 0x80000000, // ±0
		0x00000001, 0x80000001, // ± min subnormal
		0x007fffff, 0x807fffff, // ± max subnormal
		0x7f800000, 0xff800000, // ±Inf
		0x7fc00000, 0xffc00000, // quiet NaN, both signs
		0x7f800001, 0xff812345, // signalling NaN payloads
		0x3f800000, 0xbf800000, // ±1
	}
	for i, a := range seeds {
		for n := uint8(0); n <= 9; n++ {
			f.Add(a, seeds[(i+int(n))%len(seeds)], n)
		}
	}
	f.Fuzz(func(t *testing.T, a, b uint32, n uint8) {
		edges := []uint32{0x80000000, 0x7fc00001, 0, 0xff800000}
		size := int(n % 10)
		if n >= 10 {
			size += int(n)
		}
		x := make([]float32, size)
		dy := make([]float32, size)
		for i := range x {
			u, v := a, b
			switch i % 4 {
			case 1:
				u, v = b, a
			case 2:
				u, v = a^0x80000000, edges[i%len(edges)]
			case 3:
				u, v = edges[(i/4)%len(edges)], b^0x80000000
			}
			x[i], dy[i] = math.Float32frombits(u), math.Float32frombits(v)
		}
		wantY := make([]uint32, size)
		for i, v := range x {
			if v > 0 {
				wantY[i] = math.Float32bits(v)
			}
		}
		eachForm(func(form string) {
			y := make([]float32, size)
			ReLU(y, x)
			inPlace := append([]float32(nil), x...)
			ReLU(inPlace, inPlace)
			for i := range x {
				if got := math.Float32bits(y[i]); got != wantY[i] {
					t.Fatalf("%s ReLU lane %d of %d: x %08x gave %08x, want %08x", form, i, size, math.Float32bits(x[i]), got, wantY[i])
				}
				if got := math.Float32bits(inPlace[i]); got != wantY[i] {
					t.Fatalf("%s in-place ReLU lane %d of %d: x %08x gave %08x, want %08x", form, i, size, math.Float32bits(x[i]), got, wantY[i])
				}
			}
			// The backward rule on an arbitrary y (x itself, NaN and negatives
			// included) and on ReLU's own output.
			for _, yy := range [][]float32{x, y} {
				dx := make([]float32, size)
				ReLUBackward(dx, yy, dy)
				inPlace := append([]float32(nil), dy...)
				ReLUBackward(inPlace, yy, inPlace)
				for i := range yy {
					var want uint32
					if 0 < yy[i] {
						want = math.Float32bits(dy[i])
					}
					if got := math.Float32bits(dx[i]); got != want {
						t.Fatalf("%s ReLUBackward lane %d of %d: y %08x dy %08x gave %08x, want %08x", form, i, size, math.Float32bits(yy[i]), math.Float32bits(dy[i]), got, want)
					}
					if got := math.Float32bits(inPlace[i]); got != want {
						t.Fatalf("%s in-place ReLUBackward lane %d of %d: gave %08x, want %08x", form, i, size, got, want)
					}
				}
			}
		})
	})
}

func TestReLULengthMismatchPanics(t *testing.T) {
	for name, call := range map[string]func(){
		"ReLU":            func() { ReLU(make([]float32, 3), make([]float32, 4)) },
		"ReLUBackward y":  func() { ReLUBackward(make([]float32, 3), make([]float32, 4), make([]float32, 3)) },
		"ReLUBackward dy": func() { ReLUBackward(make([]float32, 3), make([]float32, 3), make([]float32, 4)) },
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
