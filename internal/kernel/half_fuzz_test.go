package kernel

import (
	"math"
	"math/bits"
	"testing"
)

// FuzzHalfConverters fuzzes the binary16 conversion kernels over arbitrary
// float32 bit patterns and arbitrary half words:
//
//   - encode→decode→encode is idempotent (one rounding, then fixed point),
//   - decode→encode reproduces any non-NaN half exactly (decode is exact,
//     encode of an exactly-representable value is identity), and any NaN
//     half canonicalizes to the quiet NaN 0x7e00 with its sign,
//   - the batched EncodeHalf/DecodeHalf and the in-place RoundHalf agree
//     with the scalar converters element-wise, on every lane of RoundHalf's
//     SSE kernel and of its scalar tail,
//   - no input — NaN payloads, infinities, subnormals, negative zero —
//     panics or produces a non-canonical class.
//
// The committed corpus under testdata/fuzz/FuzzHalfConverters seeds the
// boundary cases (subnormal thresholds, overflow threshold, rounding ties,
// NaN payloads); `go test` replays it on every run, `go test
// -fuzz=FuzzHalfConverters ./internal/kernel` explores from it.
func FuzzHalfConverters(f *testing.F) {
	// Float32 edges: zeros, subnormal/normal/overflow thresholds, rounding
	// ties, infinities, NaN payloads. Half edges ride along in the second
	// argument.
	seeds := []struct {
		bits uint32
		h    uint16
	}{
		{0x00000000, 0x0000}, // +0, +0
		{0x80000000, 0x8000}, // -0, -0
		{0x3f800000, 0x3c00}, // 1.0, 1.0
		{0x33000000, 0x0001}, // 2^-25 (ties to even at zero), min subnormal
		{0x33000001, 0x03ff}, // just above the tie, max subnormal
		{0x387fffff, 0x0400}, // just below 2^-14, min normal
		{0x38800000, 0x7bff}, // 2^-14 exactly, max finite half
		{0x477fefff, 0x7c00}, // just below half overflow, +Inf
		{0x477ff000, 0xfc00}, // rounds to Inf, -Inf
		{0x47800000, 0x7e00}, // 2^16: overflow, canonical quiet NaN
		{0x7f800000, 0x7c01}, // +Inf, signaling-NaN payload
		{0xff800000, 0xfdff}, // -Inf, another NaN payload
		{0x7fc00000, 0x7fff}, // quiet NaN, max NaN payload
		{0x7f800001, 0x8001}, // signaling NaN, -min subnormal
		{0x38801000, 0x3c01}, // rounding tie in the normal range
		{0x38803000, 0x3555}, // odd mantissa tie (rounds up)
	}
	for _, s := range seeds {
		f.Add(s.bits, s.h)
	}
	f.Fuzz(func(t *testing.T, fbits uint32, h uint16) {
		v := math.Float32frombits(fbits)

		// Round-trip idempotence: the first conversion rounds, after that
		// the value is a fixed point.
		h1 := Float32ToHalf(v)
		v1 := HalfToFloat32(h1)
		if h2 := Float32ToHalf(v1); h2 != h1 {
			t.Fatalf("encode not idempotent: %08x -> %04x -> %v -> %04x", fbits, h1, v1, h2)
		}
		// Class preservation: NaN stays NaN, and a finite input can only
		// map to a finite or overflowed half, never NaN.
		vIsNaN := v != v
		rtIsNaN := v1 != v1
		if vIsNaN != rtIsNaN {
			t.Fatalf("NaN class not preserved: %08x -> %04x -> %v", fbits, h1, v1)
		}
		// Sign survives every path: subnormal, overflow to Inf, and the
		// flush-to-zero tail all keep the signed zero/infinity.
		if !vIsNaN && math.Signbit(float64(v)) != math.Signbit(float64(v1)) {
			t.Fatalf("sign lost: %08x (%v) -> %04x (%v)", fbits, v, h1, v1)
		}

		// Decode→encode: exact for every non-NaN half; NaN payloads
		// canonicalize to the signed quiet NaN.
		d := HalfToFloat32(h)
		re := Float32ToHalf(d)
		if h&0x7c00 == 0x7c00 && h&0x03ff != 0 { // NaN payload
			if want := h&0x8000 | 0x7e00; re != want {
				t.Fatalf("NaN half %04x re-encoded to %04x, want canonical %04x", h, re, want)
			}
		} else if re != h {
			t.Fatalf("half %04x -> %v -> %04x, decode/encode not exact", h, d, re)
		}

		// Batched converters and RoundHalf agree with the scalar path
		// element-wise. The vector mixes the fuzzed value with rotations of
		// its bits and the decoded half so every lane exercises a different
		// range; its length (19) fills four four-lane SSE blocks and leaves
		// a three-element scalar tail, and the six variants cycle, so each
		// lands in several lane positions and in the tail.
		var src []float32
		for i := 0; i < 19; i++ {
			x := fbits
			switch i % 6 {
			case 1:
				x ^= 0x80000000
			case 2:
				x = math.Float32bits(d)
			case 3:
				x = bits.RotateLeft32(fbits, 7+i)
			case 4:
				x ^= 0x00000fff
			case 5:
				x = ^fbits
			}
			src = append(src, math.Float32frombits(x))
		}
		enc := make([]uint16, len(src))
		EncodeHalf(enc, src)
		rounded := append([]float32(nil), src...)
		RoundHalf(rounded)
		for i, x := range src {
			want := Float32ToHalf(x)
			if enc[i] != want {
				t.Fatalf("EncodeHalf lane %d: %04x, scalar %04x (input %08x)", i, enc[i], want, math.Float32bits(x))
			}
			if got, want := math.Float32bits(rounded[i]), math.Float32bits(HalfToFloat32(want)); got != want {
				t.Fatalf("RoundHalf lane %d: %08x, decode of encode %08x (input %08x)", i, got, want, math.Float32bits(x))
			}
		}
		dec := make([]float32, len(enc))
		DecodeHalf(dec, enc)
		for i, hb := range enc {
			want := HalfToFloat32(hb)
			if math.Float32bits(dec[i]) != math.Float32bits(want) {
				t.Fatalf("DecodeHalf lane %d: %v (%08x), scalar %v (%08x)", i, dec[i], math.Float32bits(dec[i]), want, math.Float32bits(want))
			}
		}
	})
}
