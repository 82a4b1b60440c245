package nn

import (
	"repro/internal/kernel"
	"repro/internal/tensor"
)

// Layer-owned buffers: every activation, gradient and workspace.
//
// A layer takes its output, its input gradient and whatever it caches for
// Backward from slots it owns (acts, plus per-layer workspaces such as
// BatchNorm's x̂ and segment sums or Conv2D's panels). Each slot cap-grows
// to the largest extent it has served, and every later shape, smaller or
// revisited, reuses it, so a warm step allocates no activation. A layer has
// separate slots for its training output, its eval output and its input
// gradient, so an eval call never overwrites what a training Forward
// returned or what its Backward reads.
//
// Ownership and lifetime. A returned tensor belongs to the layer:
//   - a training Forward's output stays valid until that layer's next
//     training Forward, so Network.Forward(x, true)'s result is valid until
//     that network's next training Forward;
//   - Backward's result stays valid until the layer's next Backward;
//   - a layer's eval output stays valid until its next eval Forward.
//     Network.Forward(x, false) never returns one: it runs the batch through
//     the eval slots in chunks of at most evalChunk rows and copies each
//     chunk's output into one fresh tensor, which the caller owns. Eval
//     memory is therefore bounded by the chunk, not the batch, and no caller
//     holds a buffer a later call overwrites.
//
// A pass that accumulates into its reused gradient (col2im, the MaxPool2D
// and AvgPool2D scatters) clears it first; every other pass writes each
// element of its slot before anything reads it.
//
// Conv2D lowers onto one workspace per layer. A training Forward keeps the
// batch's panel (k·n·l floats, every block's im2col in block order) for
// Backward; an eval Forward keeps nothing and lowers each block into one
// block panel of at most convPanelBudget floats whatever the input shape.
// The block's output rows and, at F16, its rounded input are block-sized
// too.
//
// Determinism: allocation is a pure function of the sequence of input
// shapes the layer sees (which the resolution schedule fixes per epoch),
// never of timing, worker count, or topology. The buffers themselves carry
// no state across steps — every element is rewritten before it is read,
// and the panel a training Forward keeps is read only by the Backward of
// that step — so reuse cannot leak one resolution's values into another's,
// and the fixed-tree reduction discipline downstream is untouched.

// acts is a layer's activation slots: its training output, its eval output
// and its input gradient.
type acts struct {
	train, eval, grad tensor.Tensor
}

// out returns the output slot of a training or an eval Forward, shaped.
func (a *acts) out(train bool, shape ...int) *tensor.Tensor {
	if train {
		return shaped(&a.train, shape...)
	}
	return shaped(&a.eval, shape...)
}

// dx returns the input-gradient slot, shaped.
func (a *acts) dx(shape ...int) *tensor.Tensor { return shaped(&a.grad, shape...) }

// shaped points t at the first numel(shape) elements of its own storage,
// growing it when it is too small, with t's shape storage reused: once the
// slot has served its largest shape it allocates nothing.
func shaped(t *tensor.Tensor, shape ...int) *tensor.Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	grow(&t.Data, n)
	t.Shape = append(t.Shape[:0], shape...)
	return t
}

// convScratch is Conv2D's workspace: panel, the batch's column panels kept
// by a training Forward (block after block, each the block's im2col as a
// [k, nb·l] matrix, which Backward reads for dW and then overwrites with
// the block's Wᵀ·dY); col, the one block panel an eval Forward lowers into;
// the block's [outC, nb·l] output rows (Forward's GEMM result, Backward's
// gathered dY); and at F16 the block's input rounded through binary16
// (which takes storage only when the layer runs at F16). colT and rowsT are
// the panels' tensor headers, reshaped in place per block.
type convScratch struct {
	panel       []float32
	col, rows   []float32
	in          []float32
	colT, rowsT tensor.Tensor
}

// block returns the panels of the block of nb samples from sample s0, l
// patch columns each: rows as [outC, nb·l], and col as [k, nb·l] — with
// kept, the block's slice of the batch's panel (which Forward has grown to
// the batch), else the one block panel. The block buffers grow on the first
// block that needs more room and are reused after that.
func (s *convScratch) block(k, outC, l, s0, nb int, kept bool) (col, rows *tensor.Tensor) {
	rows = view(&s.rowsT, &s.rows, outC, nb*l)
	if !kept {
		return view(&s.colT, &s.col, k, nb*l), rows
	}
	s.colT.Shape = append(s.colT.Shape[:0], k, nb*l)
	s.colT.Data = s.panel[k*s0*l : k*(s0+nb)*l]
	return &s.colT, rows
}

// view points t at the first r·c elements of *buf as an [r, c] matrix,
// growing *buf when it is too small. t's shape storage is reused, so a view
// allocates nothing once *buf is large enough.
func view(t *tensor.Tensor, buf *[]float32, r, c int) *tensor.Tensor {
	t.Shape = append(t.Shape[:0], r, c)
	t.Data = grow(buf, r*c)
	return t
}

// grow sets *buf to its first n elements, reallocating it when it is too
// small, and returns it.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// roundedCopy copies src into *buf, growing it when it is too small, and
// rounds the copy through binary16 (kernel.RoundHalf) — the one rounding the
// F16 compute path applies to a GEMM operand. src is never written: it may
// be a master weight, the caller's input, or a gradient another layer still
// reads. The pass is accounted to the profiler's convert phase.
func roundedCopy(buf *[]float32, src []float32) []float32 {
	copy(grow(buf, len(src)), src)
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
