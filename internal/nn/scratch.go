package nn

import "repro/internal/tensor"

// Shape-keyed scratch for the dynamic-shape training path.
//
// Layers that lower onto workspaces (Conv2D's im2col panels and f16 packs,
// MaxPool2D's argmax plane) historically sized them for one resolution and
// cap-grew in place. Under a progressive-resolution schedule the input
// shape changes between epochs, so the workspaces live in a small map keyed
// by the input shape instead: the first batch at a new shape allocates that
// shape's slot, later batches — including after switching back — reuse it.
//
// Determinism: allocation is a pure function of the sequence of input
// shapes the layer sees (which the resolution schedule fixes per epoch),
// never of timing, worker count, or topology. The buffers themselves carry
// no state across steps — every element is rewritten before it is read —
// so reuse cannot leak one resolution's values into another's, and the
// fixed-tree reduction discipline downstream is untouched.

// shapeKey identifies one scratch slot. Fields a layer's workspace does not
// depend on stay zero (Conv2D's im2col panel is per-sample, so n and c are
// zero there; MaxPool2D's argmax covers the whole batch).
type shapeKey struct {
	n, c, h, w int
}

// convScratch bundles Conv2D's per-shape workspaces: the im2col panel, the
// gradient panel it is transposed into during Backward, and the binary16
// packs of the f16 compute path (which take storage only when the layer
// runs at F16).
type convScratch struct {
	col, dcol       []float32
	colHalf, dyHalf tensor.Half
}

// convCache maps input shape → workspace for one Conv2D.
type convCache map[shapeKey]*convScratch

// at returns the slot for key, allocating its float32 panels on first use
// at this shape.
func (m *convCache) at(key shapeKey, colLen int) *convScratch {
	if *m == nil {
		*m = make(convCache)
	}
	s := (*m)[key]
	if s == nil {
		s = &convScratch{col: make([]float32, colLen), dcol: make([]float32, colLen)}
		(*m)[key] = s
	}
	return s
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
