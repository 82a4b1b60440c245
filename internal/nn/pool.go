package nn

import (
	"fmt"
	"math"

	"repro/internal/kernel"
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
	pg := newPooling(g)
	// A chunk of planes holds at least par.MinParallel outputs: at about a
	// nanosecond an output, a smaller one costs less than its goroutine.
	par.ForGrain(n*c, (par.MinParallel+outArea-1)/outArea, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			var arg []int32
			if am != nil {
				arg = am[p*outArea : (p+1)*outArea]
			}
			pg.plane(xd[p*area:(p+1)*area], yd[p*outArea:(p+1)*outArea], arg, p*area)
		}
	})
	return y
}

// pooling is a max pool's geometry for one Forward: its output size, and
// the output rows [r0, r1) and columns [c0, c1) whose windows are 2×2 at
// stride 2 and wholly in bounds, which kernel.MaxPool2x2 pools. The range
// is empty unless the pool is 2×2/2; padding leaves it the interior.
type pooling struct {
	tensor.ConvGeom
	outH, outW     int
	r0, r1, c0, c1 int
}

func newPooling(g tensor.ConvGeom) pooling {
	p := pooling{ConvGeom: g, outH: g.OutH(), outW: g.OutW()}
	if g.KH == 2 && g.KW == 2 && g.StrideH == 2 && g.StrideW == 2 {
		p.r0, p.r1 = inBounds(g.PadH, g.InH, p.outH)
		p.c0, p.c1 = inBounds(g.PadW, g.InW, p.outW)
	}
	return p
}

// inBounds returns the outputs [lo, hi) of a 2-wide window at stride 2 over
// n inputs with pad before them whose taps are all in bounds: 2o − pad >= 0
// and 2o − pad + 2 <= n.
func inBounds(pad, n, out int) (lo, hi int) {
	lo = min((pad+1)/2, out)
	return lo, max(min((n+pad)/2, out), lo)
}

// plane pools one input plane into out. When arg is non-nil it receives
// base plus the chosen tap's index in the plane, or −1. The 2×2 windows in
// bounds go to kernel.MaxPool2x2: all their rows in one call when they span
// whole output rows (an unpadded pool), else a call per row. Every other
// window is clamped to its in-bounds tap range once, so no tap tests
// bounds, and scanned in (kh, kw) order.
func (p pooling) plane(in, out []float32, arg []int32, base int) {
	h, w, outW := p.InH, p.InW, p.outW
	if p.r1 > p.r0 && p.c1 > p.c0 {
		n, rows := p.c1-p.c0, 1
		if n == outW {
			rows = p.r1 - p.r0 // whole output rows are contiguous
		}
		for oh := p.r0; oh < p.r1; oh += rows {
			o, i0 := oh*outW+p.c0, (2*oh-p.PadH)*w+2*p.c0-p.PadW
			var a []int32
			if arg != nil {
				a = arg[o : o+rows*n]
			}
			kernel.MaxPool2x2(out[o:o+rows*n], a, in[i0:], n, w, base+i0)
		}
		if p.r0 == 0 && p.r1 == p.outH && p.c0 == 0 && p.c1 == outW {
			return // the kernel pooled every window
		}
	}
	negInf := float32(math.Inf(-1))
	for oh := 0; oh < p.outH; oh++ {
		h0 := oh*p.StrideH - p.PadH
		h1 := min(h0+p.KH, h)
		h0 = max(h0, 0)
		skip := -1 // the first column the kernel pooled in this row, if any
		if oh >= p.r0 && oh < p.r1 && p.c1 > p.c0 {
			skip = p.c0
		}
		for ow := 0; ow < outW; ow++ {
			if ow == skip {
				ow = p.c1 - 1
				continue
			}
			w0 := ow*p.StrideW - p.PadW
			w1 := min(w0+p.KW, w)
			w0 = max(w0, 0)
			best, idx := negInf, -1
			for ih := h0; ih < h1; ih++ {
				row := in[ih*w : ih*w+w1]
				for iw := w0; iw < w1; iw++ {
					if v := row[iw]; v > best {
						best, idx = v, ih*w+iw
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
