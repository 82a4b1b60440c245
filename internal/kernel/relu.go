package kernel

// ReLU sets dst[i] = src[i] > 0 ? src[i] : +0, the rectifier with its exact
// rule at the edges: NaN and −0 give +0. dst may alias src. On amd64
// reluVec (relu_amd64.s) takes the leading multiple of four elements in one
// SSE pass, MAXPS with x in the destination and +0 in the source — which
// returns the source unless x > 0, that rule lane for lane — and the scalar
// loop below finishes the tail; elsewhere the loop takes every element.
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
// alias dy. On amd64 reluBackwardVec is one SSE pass (CMPPS less-than
// against +0, then ANDPS with dy) over the leading multiple of four.
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
