package nn

import (
	"fmt"
	"math"

	"repro/internal/par"
	"repro/internal/tensor"
)

// MaxPool2D is max pooling over NCHW activations. Each output is the first
// strict maximum of its window's in-bounds taps in (kh, kw) order, from
// −Inf: ties go to the first tap, NaN never wins, and a window of only NaN
// or −Inf gives −Inf with no argmax (its gradient goes nowhere).
type MaxPool2D struct {
	name             string
	KH, KW           int
	StrideH, StrideW int
	PadH, PadW       int

	inShape []int
	// argmax holds the flat input index chosen for each output element of
	// the last training Forward (nil after an eval Forward), in argmaxBuf's
	// cap-grown storage.
	argmax, argmaxBuf []int32
	acts              acts
}

// NewMaxPool returns a square max-pooling layer.
func NewMaxPool(name string, k, stride, pad int) *MaxPool2D {
	return &MaxPool2D{name: name, KH: k, KW: k, StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}
}

// Name implements Layer.
func (l *MaxPool2D) Name() string { return l.name }

// Params implements Layer.
func (l *MaxPool2D) Params() []*Param { return nil }

// Forward implements Layer. An eval Forward records no argmax.
func (l *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	g := window(l.name, x, l.KH, l.KW, l.StrideH, l.StrideW, l.PadH, l.PadW)
	n, c, h, w := x.Shape[0], g.InC, g.InH, g.InW
	outH, outW := g.OutH(), g.OutW()
	y := l.acts.out(train, n, c, outH, outW)
	l.argmax = nil
	if train {
		l.inShape = append(l.inShape[:0], x.Shape...)
		l.argmax = grow(&l.argmaxBuf, n*c*outH*outW)
	}
	xd, yd, am := x.Data, y.Data, l.argmax
	area, outArea := h*w, outH*outW
	par.ForGrain(n*c, 1, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			var arg []int32
			if am != nil {
				arg = am[p*outArea : (p+1)*outArea]
			}
			maxPoolPlane(g, xd[p*area:(p+1)*area], yd[p*outArea:(p+1)*outArea], arg, p*area)
		}
	})
	return y
}

// maxPoolPlane pools one input plane into out. Each window is clamped to
// its in-bounds tap range once, so no tap tests bounds, and every tap goes
// through firstMax, so none branches on its value. A window whose in-bounds
// part is 2×2 (every window of a 2×2/2 pool) runs as a two-level tree: each
// row takes its first strict max, and the second row replaces the first
// only on a strict >. "First strict max" is associative with left
// priority, so the tree picks the tap the (kh, kw) scan picks. When arg is
// non-nil it receives base plus the chosen tap's index in the plane, or −1.
func maxPoolPlane(g tensor.ConvGeom, in, out []float32, arg []int32, base int) {
	h, w, outH, outW := g.InH, g.InW, g.OutH(), g.OutW()
	kh, kw, sh, sw, ph, pw := g.KH, g.KW, g.StrideH, g.StrideW, g.PadH, g.PadW
	negInf := float32(math.Inf(-1))
	for oh := 0; oh < outH; oh++ {
		h0 := oh*sh - ph
		h1 := min(h0+kh, h)
		h0 = max(h0, 0)
		for ow := 0; ow < outW; ow++ {
			w0 := ow*sw - pw
			w1 := min(w0+kw, w)
			w0 = max(w0, 0)
			best, idx := negInf, -1
			if h1-h0 == 2 && w1-w0 == 2 {
				i0 := h0*w + w0
				i1 := i0 + w
				r0, r1 := in[i0:i0+2], in[i1:i1+2]
				m0, j0 := firstMax(negInf, -1, r0[0], i0)
				m0, j0 = firstMax(m0, j0, r0[1], i0+1)
				m1, j1 := firstMax(negInf, -1, r1[0], i1)
				m1, j1 = firstMax(m1, j1, r1[1], i1+1)
				best, idx = firstMax(m0, j0, m1, j1)
			} else {
				for ih := h0; ih < h1; ih++ {
					row := in[ih*w : ih*w+w1]
					for iw := w0; iw < w1; iw++ {
						best, idx = firstMax(best, idx, row[iw], ih*w+iw)
					}
				}
			}
			o := oh*outW + ow
			out[o] = best
			if arg != nil {
				if idx >= 0 {
					idx += base
				}
				arg[o] = int32(idx)
			}
		}
	}
}

// firstMax returns (v, j) if v > m and (m, i) otherwise: one step of a
// first-strict-max scan (ties keep m, NaN never replaces it), with the
// compare turned into a mask that selects the bits, not a branch — a
// pooling window's compares are as random as its values.
func firstMax(m float32, i int, v float32, j int) (float32, int) {
	var c int
	if v > m {
		c = -1
	}
	mb, vb := math.Float32bits(m), math.Float32bits(v)
	return math.Float32frombits(mb ^ (mb^vb)&uint32(c)), i ^ (i^j)&c
}

// Backward implements Layer.
func (l *MaxPool2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if l.argmax == nil {
		panic(fmt.Sprintf("nn: %s: Backward without a training Forward", l.name))
	}
	dx := l.acts.dx(l.inShape...)
	dd := dx.Data
	clear(dd) // the scatter accumulates into the reused slot
	for i, v := range dout.Data {
		if idx := l.argmax[i]; idx >= 0 {
			dd[idx] += v
		}
	}
	l.argmax = nil
	return dx
}

// GlobalAvgPool2D averages each channel plane to a single value, producing
// [N, C] from [N, C, H, W]. ResNet-50 uses it before the final classifier.
type GlobalAvgPool2D struct {
	name    string
	inShape []int
	acts    acts
}

// NewGlobalAvgPool returns a global average pooling layer.
func NewGlobalAvgPool(name string) *GlobalAvgPool2D { return &GlobalAvgPool2D{name: name} }

// Name implements Layer.
func (l *GlobalAvgPool2D) Name() string { return l.name }

// Params implements Layer.
func (l *GlobalAvgPool2D) Params() []*Param { return nil }

// Forward implements Layer.
func (l *GlobalAvgPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("nn: %s: want NCHW input, got %v", l.name, x.Shape))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if train {
		l.inShape = append(l.inShape[:0], x.Shape...)
	}
	y := l.acts.out(train, n, c)
	area := h * w
	inv := 1 / float32(area)
	par.ForGrain(n*c, 8, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			plane := x.Data[p*area : (p+1)*area]
			var s float32
			for _, v := range plane {
				s += v
			}
			y.Data[p] = s * inv
		}
	})
	return y
}

// Backward implements Layer.
func (l *GlobalAvgPool2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dx := l.acts.dx(l.inShape...)
	h, w := l.inShape[2], l.inShape[3]
	area := h * w
	inv := 1 / float32(area)
	for p, g := range dout.Data {
		plane := dx.Data[p*area : (p+1)*area]
		gv := g * inv
		for i := range plane {
			plane[i] = gv
		}
	}
	return dx
}

// AvgPool2D is windowed average pooling (used by the original AlexNet-style
// nets in some variants and handy for reduced models).
type AvgPool2D struct {
	name             string
	KH, KW           int
	StrideH, StrideW int

	inShape []int
	acts    acts
}

// NewAvgPool returns a square average-pooling layer without padding.
func NewAvgPool(name string, k, stride int) *AvgPool2D {
	return &AvgPool2D{name: name, KH: k, KW: k, StrideH: stride, StrideW: stride}
}

// Name implements Layer.
func (l *AvgPool2D) Name() string { return l.name }

// Params implements Layer.
func (l *AvgPool2D) Params() []*Param { return nil }

// Forward implements Layer.
func (l *AvgPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	g := window(l.name, x, l.KH, l.KW, l.StrideH, l.StrideW, 0, 0)
	n, c, h, w := x.Shape[0], g.InC, g.InH, g.InW
	outH, outW := g.OutH(), g.OutW()
	if train {
		l.inShape = append(l.inShape[:0], x.Shape...)
	}
	y := l.acts.out(train, n, c, outH, outW)
	inv := 1 / float32(l.KH*l.KW)
	planes := n * c
	par.ForGrain(planes, 1, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			in := x.Data[p*h*w : (p+1)*h*w]
			outBase := p * outH * outW
			for oh := 0; oh < outH; oh++ {
				for ow := 0; ow < outW; ow++ {
					var s float32
					for kh := 0; kh < l.KH; kh++ {
						row := (oh*l.StrideH + kh) * w
						for kw := 0; kw < l.KW; kw++ {
							s += in[row+ow*l.StrideW+kw]
						}
					}
					y.Data[outBase+oh*outW+ow] = s * inv
				}
			}
		}
	})
	return y
}

// Backward implements Layer.
func (l *AvgPool2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dx := l.acts.dx(l.inShape...)
	clear(dx.Data) // the scatter accumulates into the reused slot
	h, w := l.inShape[2], l.inShape[3]
	outH, outW := dout.Shape[2], dout.Shape[3]
	inv := 1 / float32(l.KH*l.KW)
	planes := l.inShape[0] * l.inShape[1]
	for p := 0; p < planes; p++ {
		out := dout.Data[p*outH*outW : (p+1)*outH*outW]
		in := dx.Data[p*h*w : (p+1)*h*w]
		for oh := 0; oh < outH; oh++ {
			for ow := 0; ow < outW; ow++ {
				g := float32(out[oh*outW+ow] * inv)
				for kh := 0; kh < l.KH; kh++ {
					row := (oh*l.StrideH + kh) * w
					for kw := 0; kw < l.KW; kw++ {
						in[row+ow*l.StrideW+kw] += g
					}
				}
			}
		}
	}
	return dx
}
