package nn

import "repro/internal/tensor"

// Layer workspaces for the dynamic-shape training path.
//
// Conv2D lowers onto one workspace per layer (its block panels and f16
// packs). A block panel holds at most convPanelBudget floats whatever the
// input shape, so the workspace cap-grows to the largest block it has served
// and every later shape, smaller or revisited, reuses it. MaxPool2D's argmax
// plane covers the whole batch, so it lives in a small map keyed by the input
// shape: the first batch at a new shape allocates that shape's slot, later
// batches — including after switching back — reuse it.
//
// Determinism: allocation is a pure function of the sequence of input
// shapes the layer sees (which the resolution schedule fixes per epoch),
// never of timing, worker count, or topology. The buffers themselves carry
// no state across steps — every element is rewritten before it is read —
// so reuse cannot leak one resolution's values into another's, and the
// fixed-tree reduction discipline downstream is untouched.

// shapeKey identifies one argmax slot: the full NCHW input shape.
type shapeKey struct {
	n, c, h, w int
}

// convScratch is Conv2D's workspace: the column panel of one block of
// samples (the im2col of the block, which Backward overwrites with the
// block's Wᵀ·dY), the block's [outC, nb·l] output rows (Forward's GEMM
// result, Backward's gathered dY), and the binary16 packs of the f16 compute
// path (which take storage only when the layer runs at F16).
type convScratch struct {
	col, rows       []float32
	colHalf, dyHalf tensor.Half
}

// block returns the workspace's panels for a block of cols = nb·l patch
// columns: col as [k, cols] and rows as [outC, cols]. They grow on the first
// block that needs more room and are reused after that.
func (s *convScratch) block(k, outC, cols int) (col, rows *tensor.Tensor) {
	if cap(s.col) < k*cols {
		s.col = make([]float32, k*cols)
	}
	if cap(s.rows) < outC*cols {
		s.rows = make([]float32, outC*cols)
	}
	return tensor.FromSlice(s.col[:k*cols], k, cols), tensor.FromSlice(s.rows[:outC*cols], outC, cols)
}

// argmaxCache maps input shape → argmax plane for one MaxPool2D.
type argmaxCache map[shapeKey][]int32

func (m *argmaxCache) at(key shapeKey, n int) []int32 {
	if *m == nil {
		*m = make(argmaxCache)
	}
	s := (*m)[key]
	if s == nil {
		s = make([]int32, n)
		(*m)[key] = s
	}
	return s
}
