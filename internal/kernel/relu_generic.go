//go:build !amd64

package kernel

// reluVec and reluBackwardVec have no vector form on the portable build:
// they write nothing, and ReLU and ReLUBackward run their scalar loops over
// the whole slice.
func reluVec(dst, src []float32) int { return 0 }

func reluBackwardVec(dx, y, dy []float32) int { return 0 }
