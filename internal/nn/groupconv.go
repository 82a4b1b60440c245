package nn

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// GroupedConv2D is a convolution whose input and output channels are split
// into G independent groups — the structure of the original AlexNet's two
// GPU "towers" (conv2/4/5 use groups=2), which is why the canonical AlexNet
// has 61M rather than ~72M parameters. Each group g convolves input
// channels [g·inC/G, (g+1)·inC/G) to output channels [g·outC/G, (g+1)·outC/G)
// with its own filters; there is no cross-group mixing.
//
// It is implemented as G independent Conv2D layers over channel slices, so
// its gradients inherit the gradient-checked correctness of Conv2D.
type GroupedConv2D struct {
	name      string
	InC, OutC int
	Groups    int
	convs     []*Conv2D

	inShape []int
	// Slots: each group's input channels and gradient channels, copied out
	// contiguous, and the layer's own output and input gradient.
	xg, dg []tensor.Tensor
	acts   acts
}

// NewGroupedConv builds a square-kernel grouped convolution. groups must
// divide both inC and outC. He initialization uses the per-group fan-in,
// matching what training one tower sees.
func NewGroupedConv(name string, r *rng.Rand, inC, outC, k, stride, pad, groups int, opts ConvOpts) *GroupedConv2D {
	if groups <= 0 || inC%groups != 0 || outC%groups != 0 {
		panic(fmt.Sprintf("nn: %s: groups=%d must divide inC=%d and outC=%d", name, groups, inC, outC))
	}
	g := &GroupedConv2D{name: name, InC: inC, OutC: outC, Groups: groups}
	for i := 0; i < groups; i++ {
		g.convs = append(g.convs, NewConv(
			fmt.Sprintf("%s.g%d", name, i), r,
			inC/groups, outC/groups, k, stride, pad, opts,
		))
	}
	return g
}

// Name implements Layer.
func (g *GroupedConv2D) Name() string { return g.name }

// SetPrecision implements PrecisionLayer, forwarding to every group's conv.
func (g *GroupedConv2D) SetPrecision(p tensor.Precision) {
	for _, c := range g.convs {
		c.SetPrecision(p)
	}
}

// Params implements Layer.
func (g *GroupedConv2D) Params() []*Param {
	var ps []*Param
	for _, c := range g.convs {
		ps = append(ps, c.Params()...)
	}
	return ps
}

// Forward implements Layer: slice input channels per group, convolve, and
// concatenate the output channel blocks.
func (g *GroupedConv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 4 || x.Shape[1] != g.InC {
		panic(fmt.Sprintf("nn: %s: want [N,%d,H,W], got %v", g.name, g.InC, x.Shape))
	}
	if train {
		g.inShape = append(g.inShape[:0], x.Shape...)
	}
	n := x.Shape[0]
	inPer := g.InC / g.Groups
	outPer := g.OutC / g.Groups
	grow(&g.xg, g.Groups)

	var y *tensor.Tensor
	for gi, conv := range g.convs {
		xg := sliceChannels(&g.xg[gi], x, gi*inPer, (gi+1)*inPer)
		yg := conv.Forward(xg, train)
		if y == nil {
			y = g.acts.out(train, n, g.OutC, yg.Shape[2], yg.Shape[3])
		}
		writeChannels(y, yg, gi*outPer)
	}
	return y
}

// Backward implements Layer.
func (g *GroupedConv2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	outPer := g.OutC / g.Groups
	inPer := g.InC / g.Groups
	dx := g.acts.dx(g.inShape...)
	grow(&g.dg, g.Groups)
	for gi, conv := range g.convs {
		dg := sliceChannels(&g.dg[gi], dout, gi*outPer, (gi+1)*outPer)
		dxg := conv.Backward(dg)
		writeChannels(dx, dxg, gi*inPer)
	}
	return dx
}

// sliceChannels copies channels [lo,hi) of a NCHW tensor into the slot dst,
// contiguous, and returns it.
func sliceChannels(dst, x *tensor.Tensor, lo, hi int) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out := shaped(dst, n, hi-lo, h, w)
	plane := h * w
	for s := 0; s < n; s++ {
		src := x.Data[(s*c+lo)*plane : (s*c+hi)*plane]
		copy(out.Data[s*(hi-lo)*plane:(s+1)*(hi-lo)*plane], src)
	}
	return out
}

// writeChannels copies all channels of src into dst starting at channel off.
func writeChannels(dst, src *tensor.Tensor, off int) {
	n, c, h, w := src.Shape[0], src.Shape[1], src.Shape[2], src.Shape[3]
	dc := dst.Shape[1]
	plane := h * w
	for s := 0; s < n; s++ {
		copy(dst.Data[(s*dc+off)*plane:(s*dc+off+c)*plane], src.Data[s*c*plane:(s+1)*c*plane])
	}
}
