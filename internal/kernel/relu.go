package kernel

// ReLU sets dst[i] = src[i] > 0 ? src[i] : +0, the rectifier with its exact
// rule at the edges: NaN and −0 give +0. dst may alias src. With AVX2,
// reluVec takes the leading multiple of eight elements and the scalar loop
// below finishes the tail; otherwise the loop takes every element.
func ReLU(dst, src []float32) {
	if len(dst) != len(src) {
		panic("kernel: ReLU length mismatch")
	}
	for i := reluVec(dst, src); i < len(src); i++ {
		if v := src[i]; v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// ReLUBackward sets dx[i] = y[i] > 0 ? dy[i] : +0: ReLU's input gradient
// read off its output y, since y > 0 exactly where the input was. The
// predicate is 0 < y, false for NaN; a passed dy keeps its bits. dx may
// alias dy. With AVX2, reluBackwardVec takes the leading multiple of eight.
func ReLUBackward(dx, y, dy []float32) {
	if len(dx) != len(y) || len(dy) != len(y) {
		panic("kernel: ReLUBackward length mismatch")
	}
	for i := reluBackwardVec(dx, y, dy); i < len(y); i++ {
		if 0 < y[i] {
			dx[i] = dy[i]
		} else {
			dx[i] = 0
		}
	}
}

// reluVec runs ReLU's AVX2 kernel (relu_amd64.s) over the leading multiple
// of eight elements and returns how many it wrote: none without AVX2. The
// kernel is VMAXPS with x as the first source and +0 as the second, which
// returns the second unless x > 0: the scalar rule lane for lane, NaN and
// −0 included. The lengths are ReLU's, validated.
func reluVec(dst, src []float32) int {
	if !useAVX2 {
		return 0
	}
	return reluAVX2(dst, src)
}

// reluBackwardVec runs ReLUBackward's AVX2 kernel over the leading multiple
// of eight elements and returns how many it wrote: none without AVX2. The
// kernel is an ordered less-than compare of +0 against y, all ones where
// 0 < y and all zeros otherwise (NaN included), ANDed with dy. The lengths
// are ReLUBackward's, validated.
func reluBackwardVec(dx, y, dy []float32) int {
	if !useAVX2 {
		return 0
	}
	return reluBackwardAVX2(dx, y, dy)
}
