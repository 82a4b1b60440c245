package nn

import (
	"repro/internal/kernel"
	"repro/internal/tensor"
)

// Layer workspaces for the dynamic-shape training path.
//
// Conv2D lowers onto one workspace per layer (its block panels and, at F16,
// the block's rounded input). A block panel holds at most convPanelBudget
// floats whatever the input shape, so the workspace cap-grows to the largest
// block it has served and every later shape, smaller or revisited, reuses
// it. MaxPool2D's argmax plane covers the whole batch, so it lives in a
// small map keyed by the input shape: the first batch at a new shape
// allocates that shape's slot, later batches — including after switching
// back — reuse it.
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
// result, Backward's gathered dY), and at F16 the block's input rounded
// through binary16 (which takes storage only when the layer runs at F16).
// colT and rowsT are the panels' tensor headers, reshaped in place per block.
type convScratch struct {
	col, rows   []float32
	in          []float32
	colT, rowsT tensor.Tensor
}

// block returns the workspace's panels for a block of cols = nb·l patch
// columns: col as [k, cols] and rows as [outC, cols]. They grow on the first
// block that needs more room and are reused after that.
func (s *convScratch) block(k, outC, cols int) (col, rows *tensor.Tensor) {
	return view(&s.colT, &s.col, k, cols), view(&s.rowsT, &s.rows, outC, cols)
}

// view points t at the first r·c elements of *buf as an [r, c] matrix,
// growing *buf when it is too small. t's shape storage is reused, so a view
// allocates nothing once *buf is large enough.
func view(t *tensor.Tensor, buf *[]float32, r, c int) *tensor.Tensor {
	if cap(*buf) < r*c {
		*buf = make([]float32, r*c)
	}
	t.Shape = append(t.Shape[:0], r, c)
	t.Data = (*buf)[:r*c]
	return t
}

// roundedCopy copies src into *buf, growing it when it is too small, and
// rounds the copy through binary16 (kernel.RoundHalf) — the one rounding the
// F16 compute path applies to a GEMM operand. src is never written: it may
// be a master weight, the caller's input, or a gradient another layer still
// reads. The pass is accounted to the profiler's convert phase.
func roundedCopy(buf *[]float32, src []float32) []float32 {
	if cap(*buf) < len(src) {
		*buf = make([]float32, len(src))
	}
	*buf = (*buf)[:len(src)]
	copy(*buf, src)
	roundHalf(*buf)
	return *buf
}

// roundHalf rounds x through binary16 in place, accounted to the profiler's
// convert phase.
func roundHalf(x []float32) {
	defer kernel.StartPhase(kernel.PhaseConvert).End()
	kernel.RoundHalf(x)
}

// operand returns t as a GEMM operand at precision p: t itself at F32; at
// F16 its rounded copy in buf (roundedCopy; buf's storage reused call after
// call).
func operand(p tensor.Precision, buf, t *tensor.Tensor) *tensor.Tensor {
	if p != tensor.F16 {
		return t
	}
	buf.Data = roundedCopy(&buf.Data, t.Data)
	buf.Shape = append(buf.Shape[:0], t.Shape...)
	return buf
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
