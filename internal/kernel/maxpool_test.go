package kernel

import (
	"encoding/binary"
	"math"
	"testing"
)

// maxPoolRef is the definition MaxPool2x2 is held to: the scalar scan of
// each window's four taps in row-major order from −Inf, replacing the
// running value only on a strict >, as MaxPool2D's scalar window loop does.
func maxPoolRef(in []float32, rows, n, w, base int) ([]float32, []int32) {
	out, arg := make([]float32, rows*n), make([]int32, rows*n)
	for o := range out {
		i := 2*(o/n)*w + 2*(o%n)
		best, idx := float32(math.Inf(-1)), int32(-1)
		for _, t := range [4]int{i, i + 1, i + w, i + w + 1} {
			if in[t] > best {
				best, idx = in[t], int32(base+t)
			}
		}
		out[o], arg[o] = best, idx
	}
	return out, arg
}

// FuzzMaxPool holds MaxPool2x2 to maxPoolRef bit for bit, in every form the
// CPU runs (see eachForm): the values, the argmax, and the values of the
// eval call (nil arg). It also checks that the kernel writes nothing past
// the outputs. A row has 1–17 outputs, or 17 plus the fuzzed width byte
// (so the AVX2 form's masked, whole-tile and overlapping-tile paths all
// run), and there are one to three rows, over input rows of 2·outputs plus
// 0–2 columns, so odd widths leave an unused last column. raw's
// little-endian words fill the input cyclically: one word makes every
// window uniform (all ties, all −Inf, all NaN), and a few words of NaN
// payloads, ±0, ±Inf and ties spread every mix over the windows.
//
// `go test` replays the seeds below and testdata/fuzz/FuzzMaxPool on every
// run (under GOARCH=386 too, where the Go tree takes every output); `go
// test -fuzz=FuzzMaxPool ./internal/kernel` explores from them.
func FuzzMaxPool(f *testing.F) {
	words := func(ws ...uint32) []byte {
		var raw []byte
		for _, w := range ws {
			raw = binary.LittleEndian.AppendUint32(raw, w)
		}
		return raw
	}
	const nan, nanNeg, sNaN = 0x7fc00000, 0xffc00001, 0x7f812345
	const one, negOne, zero, negZero, inf, negInf = 0x3f800000, 0xbf800000, 0, 0x80000000, 0x7f800000, 0xff800000
	for _, s := range []struct {
		width, pad, rows uint8
		raw              []byte
	}{
		{0, 1, 0, words(one, 0x40000000, negOne, 0x3fc00000, 0xc0200000)},
		{6, 0, 2, words(nan, one, nanNeg, sNaN, negOne)},
		{7, 2, 1, words(negInf)},
		{5, 1, 0, words(nan, sNaN, nanNeg)},
		{8, 1, 2, words(zero, negZero, negZero, zero, zero)},
		{3, 0, 1, words(one)},
		{10, 1, 0, words(inf, negInf, nan, zero, negZero, one, one)},
		{15, 2, 2, words(negInf, nan, negInf, negZero, zero, negInf)},
		{16, 1, 1, words(nan, one, one, negOne, inf, inf, nanNeg)},
		{9, 0, 2, words(negZero, zero, nanNeg, negInf, nan)},
		{13, 1, 0, words(one, 0x3f800001, one, 0x3f7fffff)},
		{40, 1, 2, words(nan, negInf, negInf, zero, inf, negZero, one, sNaN, one)},
	} {
		f.Add(s.width, s.pad, s.rows, s.raw)
	}
	f.Fuzz(func(t *testing.T, width, pad, rowsByte uint8, raw []byte) {
		if len(raw) < 4 {
			raw = words(one, negOne, zero)
		}
		n := 1 + int(width%17)
		if width >= 17 {
			n += int(width)
		}
		rows := 1 + int(rowsByte%3)
		w := 2*n + int(pad%3)
		base := 3*n + 5
		in := make([]float32, 2*rows*w)
		for i := range in {
			k := 4 * (i % (len(raw) / 4))
			in[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[k:]))
		}
		want, wantArg := maxPoolRef(in, rows, n, w, base)
		total := rows * n
		const guard = 0x7fbadbad
		eachForm(func(form string) {
			for _, eval := range []bool{false, true} {
				outBuf := make([]float32, total+8)
				argBuf := make([]int32, total+8)
				for i := range outBuf {
					outBuf[i], argBuf[i] = math.Float32frombits(guard), guard
				}
				var arg []int32
				if !eval {
					arg = argBuf[:total]
				}
				MaxPool2x2(outBuf[:total], arg, in, n, w, base)
				for j := 0; j < total; j++ {
					if got := math.Float32bits(outBuf[j]); got != math.Float32bits(want[j]) {
						t.Fatalf("%s (eval %v) %dx%d outputs, w %d: output %d is %08x, want %08x", form, eval, rows, n, w, j, got, math.Float32bits(want[j]))
					}
					if !eval && argBuf[j] != wantArg[j] {
						t.Fatalf("%s %dx%d outputs, w %d: argmax %d is %d, want %d", form, rows, n, w, j, argBuf[j], wantArg[j])
					}
				}
				for i := range outBuf {
					if i >= total && math.Float32bits(outBuf[i]) != guard {
						t.Fatalf("%s (eval %v) %dx%d outputs: wrote out[%d]", form, eval, rows, n, i)
					}
					if (eval || i >= total) && argBuf[i] != guard {
						t.Fatalf("%s (eval %v) %dx%d outputs: wrote arg[%d]", form, eval, rows, n, i)
					}
				}
			}
		})
	})
}

func TestMaxPool2x2OperandMismatchPanics(t *testing.T) {
	for name, call := range map[string]func(){
		"short arg":        func() { MaxPool2x2(make([]float32, 3), make([]int32, 2), make([]float32, 12), 3, 6, 0) },
		"narrow rows":      func() { MaxPool2x2(make([]float32, 3), nil, make([]float32, 12), 3, 5, 0) },
		"short input":      func() { MaxPool2x2(make([]float32, 3), nil, make([]float32, 11), 3, 6, 0) },
		"short last row":   func() { MaxPool2x2(make([]float32, 6), nil, make([]float32, 23), 3, 6, 0) },
		"partial row":      func() { MaxPool2x2(make([]float32, 5), nil, make([]float32, 24), 3, 6, 0) },
		"no outputs a row": func() { MaxPool2x2(nil, nil, nil, 0, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("MaxPool2x2 accepted a %s", name)
				}
			}()
			call()
		}()
	}
}
