package kernel

import "math"

// IEEE 754 binary16 converters. Halves are *stored* as uint16 and have no
// arithmetic of their own here: binary16→binary32 widening is exact, so a
// binary16 value is a float32 that went through one rounding, and that
// rounding is its only precision loss.
//
// The conversion scalars use the branch-light "magic number" algorithms
// (round-to-nearest-even on encode, exact on decode, subnormals and NaN
// included). RoundHalf is the pair composed in place — the value a binary16
// store would hand back, held in float32 — and is what the hot paths call:
// the fp16 gradient wire and the F16 layers' GEMM operands (internal/nn).
// The batched EncodeHalf/DecodeHalf inline the common normal-value path and
// serve tensor.PackHalf/GemmHalf, the binary16 GEMM entry points (one decode
// of each operand, widenHalves) and the compress FP16 wrappers, none of
// which a layer or the engine's wire calls.

// halfSubMagic is 2^-14, the smallest normal binary16 magnitude. Subtracting
// it renormalizes a decoded subnormal exactly; adding 0.5 (its bits appear in
// the encode path as 0x3f000000) lets the FPU's own round-to-nearest-even
// perform the encode-side subnormal shift.
const halfSubMagic = float32(1.0 / (1 << 14))

// Float32ToHalf converts one float32 to its nearest binary16 representation
// (round-to-nearest-even), handling subnormals, infinities and NaN (any NaN
// maps to the quiet NaN 0x7e00, preserving sign).
func Float32ToHalf(f float32) uint16 {
	bits := math.Float32bits(f)
	sign := uint16(bits>>16) & 0x8000
	u := bits & 0x7fffffff
	if u >= 0x47800000 { // ≥ 2^16 after rounding: overflow, Inf or NaN
		if u > 0x7f800000 {
			return sign | 0x7e00
		}
		return sign | 0x7c00
	}
	if u < 0x38800000 { // < 2^-14: subnormal or zero in half precision
		// Adding 0.5 lands the value's significand in the low bits of
		// 0.5's, pre-shifted exactly where the half subnormal wants them;
		// the float add's own round-to-nearest-even does the rounding.
		v := math.Float32frombits(u) + 0.5
		return sign | uint16(math.Float32bits(v)-0x3f000000)
	}
	// Normal: rebias the exponent and round the 13 dropped mantissa bits to
	// nearest even (0xfff plus the pre-add low bit of the kept mantissa).
	odd := (u >> 13) & 1
	u += 0xc8000fff // ((15-127)<<23) + 0xfff, as unsigned wraparound
	u += odd
	return sign | uint16(u>>13)
}

// HalfToFloat32 converts a binary16 value back to float32 exactly.
func HalfToFloat32(h uint16) float32 {
	o := uint32(h&0x7fff) << 13
	exp := o & 0x0f800000 // the shifted half exponent field
	o += (127 - 15) << 23 // rebias
	switch exp {
	case 0x0f800000: // Inf/NaN: push the exponent on up to 255
		o += (128 - 16) << 23
	case 0: // zero or subnormal: renormalize with one exact float subtract
		o += 1 << 23
		o = math.Float32bits(math.Float32frombits(o) - halfSubMagic)
	}
	return math.Float32frombits(o | uint32(h&0x8000)<<16)
}

// EncodeHalf packs src into binary16 (round-to-nearest-even), one element per
// slot. Lengths must match. The normal-value path is inlined so the batched
// form is substantially faster than a loop over scalar conversions. No layer
// calls it any more (they round with RoundHalf); tensor.PackHalf and the
// compress FP16 codec do.
func EncodeHalf(dst []uint16, src []float32) {
	if len(dst) != len(src) {
		panic("kernel: EncodeHalf length mismatch")
	}
	for i, v := range src {
		bits := math.Float32bits(v)
		u := bits & 0x7fffffff
		if u-0x38800000 < 0x47800000-0x38800000 { // normal half range
			odd := (u >> 13) & 1
			u += 0xc8000fff
			u += odd
			dst[i] = uint16(u>>13) | uint16(bits>>16)&0x8000
		} else {
			dst[i] = Float32ToHalf(v)
		}
	}
}

// DecodeHalf widens binary16 src into dst exactly. Lengths must match. As
// with EncodeHalf the normal-value path is inlined. No layer calls it any
// more; the binary16 GEMM panels and the compress FP16 codec do.
func DecodeHalf(dst []float32, src []uint16) {
	if len(dst) != len(src) {
		panic("kernel: DecodeHalf length mismatch")
	}
	for i, h := range src {
		if e := h & 0x7c00; e != 0 && e != 0x7c00 { // normal
			dst[i] = math.Float32frombits(uint32(h&0x7fff)<<13 + 0x38000000 | uint32(h&0x8000)<<16)
		} else {
			dst[i] = HalfToFloat32(h)
		}
	}
}

// widenHalves returns src decoded into a fresh float32 slice: how the
// binary16 GEMM entry points meet the f32 kernels.
func widenHalves(src []uint16) []float32 {
	dst := make([]float32, len(src))
	DecodeHalf(dst, src)
	return dst
}

// RoundHalf rounds x through binary16 in place: x[i] becomes
// HalfToFloat32(Float32ToHalf(x[i])), the value a half-precision wire
// delivers, in one pass and with no half buffer. With AVX2 a kernel rounds
// eight lanes at a time in float32 bits (half_amd64.s); the tail, and every
// element without AVX2, takes the two scalar converters.
func RoundHalf(x []float32) {
	for i := roundHalfVec(x); i < len(x); i++ {
		x[i] = HalfToFloat32(Float32ToHalf(x[i]))
	}
}

// roundHalfVec runs RoundHalf's AVX2 kernel (half_amd64.s) over the leading
// multiple of eight elements and returns how many it wrote: none without
// AVX2. RoundHalf finishes the rest with the scalar path. The kernel rounds
// lane by lane, branches turned into mask selects, so every element's bits
// are those of HalfToFloat32(Float32ToHalf(x)), which
// TestBatchedConvertersMatchScalar and FuzzHalfConverters check.
func roundHalfVec(x []float32) int {
	if !useAVX2 {
		return 0
	}
	return roundHalfAVX2(x)
}
