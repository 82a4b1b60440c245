package nn

import (
	"fmt"
	"math"

	"repro/internal/par"
	"repro/internal/tensor"
)

// MaxPool2D is max pooling over NCHW activations.
type MaxPool2D struct {
	name             string
	KH, KW           int
	StrideH, StrideW int
	PadH, PadW       int

	inShape []int
	// argmax holds the flat input index chosen for each output element. It
	// is per-input-shape scratch (the batch dimension folds in, so the key
	// carries n and c too), cached so resolution switches reallocate
	// deterministically and revisited shapes reuse their slot.
	scratch argmaxCache
	argmax  []int32
}

// NewMaxPool returns a square max-pooling layer.
func NewMaxPool(name string, k, stride, pad int) *MaxPool2D {
	return &MaxPool2D{name: name, KH: k, KW: k, StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}
}

// Name implements Layer.
func (l *MaxPool2D) Name() string { return l.name }

// Params implements Layer.
func (l *MaxPool2D) Params() []*Param { return nil }

// Forward implements Layer.
func (l *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	g := window(l.name, x, l.KH, l.KW, l.StrideH, l.StrideW, l.PadH, l.PadW)
	n, c, h, w := x.Shape[0], g.InC, g.InH, g.InW
	outH, outW := g.OutH(), g.OutW()
	l.inShape = append(l.inShape[:0], x.Shape...)
	y := tensor.New(n, c, outH, outW)
	l.argmax = l.scratch.at(shapeKey{n: n, c: c, h: h, w: w}, n*c*outH*outW)
	xd, yd := x.Data, y.Data
	planes := n * c
	par.ForGrain(planes, 1, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			in := xd[p*h*w : (p+1)*h*w]
			outBase := p * outH * outW
			for oh := 0; oh < outH; oh++ {
				for ow := 0; ow < outW; ow++ {
					best := float32(math.Inf(-1))
					bestIdx := int32(-1)
					for kh := 0; kh < l.KH; kh++ {
						ih := oh*l.StrideH - l.PadH + kh
						if ih < 0 || ih >= h {
							continue
						}
						for kw := 0; kw < l.KW; kw++ {
							iw := ow*l.StrideW - l.PadW + kw
							if iw < 0 || iw >= w {
								continue
							}
							v := in[ih*w+iw]
							if v > best {
								best = v
								bestIdx = int32(p*h*w + ih*w + iw)
							}
						}
					}
					o := outBase + oh*outW + ow
					yd[o] = best
					l.argmax[o] = bestIdx
				}
			}
		}
	})
	return y
}

// Backward implements Layer.
func (l *MaxPool2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(l.inShape...)
	dd := dx.Data
	for i, v := range dout.Data {
		if idx := l.argmax[i]; idx >= 0 {
			dd[idx] += v
		}
	}
	return dx
}

// GlobalAvgPool2D averages each channel plane to a single value, producing
// [N, C] from [N, C, H, W]. ResNet-50 uses it before the final classifier.
type GlobalAvgPool2D struct {
	name    string
	inShape []int
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
	l.inShape = append(l.inShape[:0], x.Shape...)
	y := tensor.New(n, c)
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
	dx := tensor.New(l.inShape...)
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
	l.inShape = append(l.inShape[:0], x.Shape...)
	y := tensor.New(n, c, outH, outW)
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
	dx := tensor.New(l.inShape...)
	h, w := l.inShape[2], l.inShape[3]
	outH, outW := dout.Shape[2], dout.Shape[3]
	inv := 1 / float32(l.KH*l.KW)
	planes := l.inShape[0] * l.inShape[1]
	for p := 0; p < planes; p++ {
		out := dout.Data[p*outH*outW : (p+1)*outH*outW]
		in := dx.Data[p*h*w : (p+1)*h*w]
		for oh := 0; oh < outH; oh++ {
			for ow := 0; ow < outW; ow++ {
				g := out[oh*outW+ow] * inv
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
