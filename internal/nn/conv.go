package nn

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW activations, lowered onto GEMM via
// im2col. Weights have shape [outC, inC·kh·kw]; bias has shape [outC].
type Conv2D struct {
	name             string
	InC, OutC        int
	KH, KW           int
	StrideH, StrideW int
	PadH, PadW       int
	Weight, Bias     *Param
	useBias          bool

	// cached between Forward and Backward
	x    *tensor.Tensor
	geom tensor.ConvGeom

	// Per-input-shape workspaces (im2col panels, f16 packs), keyed by the
	// spatial dims so a resolution schedule reallocates deterministically
	// on change and reuses slots on return. cur is the slot of the shape
	// Forward last saw, consumed by Backward.
	scratch convCache
	cur     *convScratch

	// Storage precision of the GEMM operands. At F16 they are binary16
	// copies repacked each call (weights change every step; activations
	// every batch); the float32 master weights in Weight are never touched
	// by precision. The weight pack is shape-independent and so lives on
	// the layer, not the cache.
	precision tensor.Precision
	w         operand     // Weight.W, packed once per Forward and reused by Backward
	wHalf     tensor.Half // w's storage at F16
}

// ConvOpts configures optional Conv2D behaviour.
type ConvOpts struct {
	// NoBias omits the additive bias (standard when BN follows the conv).
	NoBias bool
}

// NewConv2D constructs a square-ish convolution. Weights are He-initialized
// from r (appropriate for the ReLU networks in this repo).
func NewConv2D(name string, r *rng.Rand, inC, outC, kh, kw, strideH, strideW, padH, padW int, opts ConvOpts) *Conv2D {
	c := &Conv2D{
		name: name, InC: inC, OutC: outC,
		KH: kh, KW: kw, StrideH: strideH, StrideW: strideW, PadH: padH, PadW: padW,
		useBias: !opts.NoBias,
	}
	k := inC * kh * kw
	c.Weight = NewParam(name+".weight", outC, k)
	c.Weight.W.FillNormal(r, 0, tensor.HeStd(k))
	c.Bias = NewParam(name+".bias", outC)
	c.Bias.NoDecay = true
	return c
}

// NewConv builds a square-kernel convolution with symmetric stride/padding.
func NewConv(name string, r *rng.Rand, inC, outC, k, stride, pad int, opts ConvOpts) *Conv2D {
	return NewConv2D(name, r, inC, outC, k, k, stride, stride, pad, pad, opts)
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// SetPrecision implements PrecisionLayer.
func (c *Conv2D) SetPrecision(p tensor.Precision) { c.precision = p }

// Params implements Layer.
func (c *Conv2D) Params() []*Param {
	if c.useBias {
		return []*Param{c.Weight, c.Bias}
	}
	return []*Param{c.Weight}
}

func (c *Conv2D) geometry(x *tensor.Tensor) tensor.ConvGeom {
	g := window(c.name, x, c.KH, c.KW, c.StrideH, c.StrideW, c.PadH, c.PadW)
	if g.InC != c.InC {
		panic(fmt.Sprintf("nn: %s: input has %d channels, layer wants %d", c.name, g.InC, c.InC))
	}
	return g
}

// window is the geometry of a layer's kh×kw window over the NCHW input x,
// shared by Conv2D and the pooling layers. A non-NCHW input or a window
// that does not fit (tensor.ConvGeom.Check) is refused with the layer's
// name and the input shape.
func window(name string, x *tensor.Tensor, kh, kw, strideH, strideW, padH, padW int) tensor.ConvGeom {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("nn: %s: want NCHW input, got shape %v", name, x.Shape))
	}
	g := tensor.ConvGeom{
		InC: x.Shape[1], InH: x.Shape[2], InW: x.Shape[3],
		KH: kh, KW: kw, StrideH: strideH, StrideW: strideW, PadH: padH, PadW: padW,
	}
	if err := g.Check(); err != nil {
		panic(fmt.Sprintf("nn: %s: input %v: %v", name, x.Shape, err))
	}
	return g
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	g := c.geometry(x)
	c.x, c.geom = x, g
	n := x.Shape[0]
	outH, outW := g.OutH(), g.OutW()
	k := c.InC * c.KH * c.KW
	l := outH * outW
	c.cur = c.scratch.at(shapeKey{h: g.InH, w: g.InW}, k*l)
	col := c.cur.col
	y := tensor.New(n, c.OutC, outH, outW)
	imLen := c.InC * g.InH * g.InW
	colM := tensor.FromSlice(col, k, l)
	c.w = pack(c.precision, &c.wHalf, c.Weight.W)
	for s := 0; s < n; s++ {
		tensor.Im2Col(g, x.Data[s*imLen:(s+1)*imLen], col)
		ym := tensor.FromSlice(y.Data[s*c.OutC*l:(s+1)*c.OutC*l], c.OutC, l)
		gemm(false, false, 1, c.w, pack(c.precision, &c.cur.colHalf, colM), 0, ym)
	}
	if c.useBias {
		bd := c.Bias.W.Data
		yd := y.Data
		for s := 0; s < n; s++ {
			base := s * c.OutC * l
			for oc := 0; oc < c.OutC; oc++ {
				b := bd[oc]
				row := yd[base+oc*l : base+(oc+1)*l]
				for i := range row {
					row[i] += b
				}
			}
		}
	}
	return y
}

// Backward implements Layer.
func (c *Conv2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	g := c.geom
	x := c.x
	n := x.Shape[0]
	outH, outW := g.OutH(), g.OutW()
	k := c.InC * c.KH * c.KW
	l := outH * outW
	col := c.cur.col
	colM := tensor.FromSlice(col, k, l)
	// dcol rides the same shape slot as col: the beta=0 GEMM below rewrites
	// every element before Col2Im reads it.
	dcol := c.cur.dcol
	dcolM := tensor.FromSlice(dcol, k, l)
	dx := tensor.New(x.Shape...)
	imLen := c.InC * g.InH * g.InW

	for s := 0; s < n; s++ {
		dym := tensor.FromSlice(dout.Data[s*c.OutC*l:(s+1)*c.OutC*l], c.OutC, l)
		// dW += dy · colᵀ  (recompute the im2col of the cached input).
		tensor.Im2Col(g, x.Data[s*imLen:(s+1)*imLen], col)
		colOp := pack(c.precision, &c.cur.colHalf, colM)
		dyOp := pack(c.precision, &c.cur.dyHalf, dym)
		gemm(false, true, 1, dyOp, colOp, 1, c.Weight.G)
		// dx = col2im(Wᵀ · dy); c.w still holds this step's weights from
		// Forward. Gradients (G, dcol) stay float32 at either precision.
		gemm(true, false, 1, c.w, dyOp, 0, dcolM)
		tensor.Col2Im(g, dcol, dx.Data[s*imLen:(s+1)*imLen])
	}
	if c.useBias {
		// Each spatial row reduces through the fixed-tree kernel sum, the
		// same discipline as the gradient reduction in internal/dist.
		gd := c.Bias.G.Data
		for s := 0; s < n; s++ {
			base := s * c.OutC * l
			for oc := 0; oc < c.OutC; oc++ {
				gd[oc] += kernel.PairwiseSum(dout.Data[base+oc*l : base+(oc+1)*l])
			}
		}
	}
	return dx
}
