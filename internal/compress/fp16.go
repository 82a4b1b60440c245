package compress

import "repro/internal/kernel"

// FP16 gradient exchange: IEEE 754 binary16 conversion, the milder
// compression point between full precision and 1-bit. The paper notes
// NVIDIA's 2-hour DGX-1 AlexNet result used half precision ("whose cost is
// half of the standard single-precision operation"); halving gradient bytes
// likewise halves the beta term of every allreduce.
//
// The conversion arithmetic lives in internal/kernel (it is shared with the
// mixed-precision compute path): branch-free magic-number converters that
// the tests there pin to round-to-nearest-even over all 2^16 halves and a
// dense probe of the float32 rounding boundaries.

// EncodeFP16 packs a float32 slice to binary16.
func EncodeFP16(src []float32, dst []uint16) {
	if len(dst) != len(src) {
		panic("compress: EncodeFP16 length mismatch")
	}
	kernel.EncodeHalf(dst, src)
}

// DecodeFP16 unpacks binary16 back to float32.
func DecodeFP16(src []uint16, dst []float32) {
	if len(dst) != len(src) {
		panic("compress: DecodeFP16 length mismatch")
	}
	kernel.DecodeHalf(dst, src)
}
