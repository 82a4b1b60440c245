//go:build amd64

package kernel

// reluVec is ReLU's SSE kernel (relu_amd64.s): it writes the leading
// multiple of four elements of dst and returns how many. The lengths are
// ReLU's, validated.
//
//go:noescape
func reluVec(dst, src []float32) int

// reluBackwardVec is ReLUBackward's SSE kernel, with the same contract.
//
//go:noescape
func reluBackwardVec(dx, y, dy []float32) int
