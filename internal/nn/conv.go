package nn

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW activations, lowered onto GEMM via
// im2col over blocks of samples (blockSize per block, one panel per block).
// A training Forward keeps the whole batch's panels for Backward, which
// lowers nothing; an eval Forward reuses one block-sized panel and keeps
// nothing. Its outputs and gradients are bit-identical to lowering one
// sample at a time. Weights have shape [outC, inC·kh·kw]; bias has shape
// [outC].
type Conv2D struct {
	name             string
	InC, OutC        int
	KH, KW           int
	StrideH, StrideW int
	PadH, PadW       int
	Weight, Bias     *Param
	useBias          bool

	// cached between a training Forward and Backward; x is nil when there
	// is nothing to back-propagate (no training Forward since the last
	// Backward, or an eval Forward after it)
	x    *tensor.Tensor
	geom tensor.ConvGeom

	// The batch's panel kept by a training Forward, the eval block panel,
	// and the rounded input block, shared by every input shape, and the
	// output and input-gradient slots (see scratch.go).
	scratch convScratch
	acts    acts

	// Numeric precision of the GEMM operands. At F16 each operand is
	// rounded through binary16 into float32 layer scratch, once per call
	// (weights change every step; activations every batch), and the
	// products run the F32 kernels; the float32 master weights in Weight,
	// the caller's input and the incoming gradient are never written.
	precision tensor.Precision
	w         *tensor.Tensor // Weight.W as an operand, set by Forward and reused by Backward
	wRound    tensor.Tensor  // w's storage at F16
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

// convPanelBudget bounds one block's column panel at about 256 KB of
// float32: a layer lowers nb = max(1, convPanelBudget/(k·l)) samples at a
// time, so the GEMMs read a cache-sized panel. An eval or serve Forward
// lowers every block into the same panel, so a batch of any size costs one
// block of scratch; a training Forward keeps each block's panel, k·n·l
// floats for the batch, so that Backward reads them instead of lowering the
// input again.
const convPanelBudget = 64 << 10

// blockSize is the number of samples a [k, l]-per-sample layer lowers at
// once over a batch of n.
func blockSize(k, l, n int) int { return min(n, max(1, convPanelBudget/(k*l))) }

// Forward implements Layer: per block of samples, one im2col into the
// block's panel, one GEMM against the filters, and one pass that scatters
// the block's [outC, nb·l] rows to NCHW with the bias added. A block of one
// sample has rows that already are its NCHW planes, so the GEMM writes them
// in the output and the bias is added in place. In training the block's
// panel is its slice of the batch's panel, kept for Backward.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	g := c.geometry(x)
	c.x, c.geom = nil, g
	n := x.Shape[0]
	outH, outW := g.OutH(), g.OutW()
	k, l := c.InC*c.KH*c.KW, outH*outW
	imLen := c.InC * g.InH * g.InW
	y := c.acts.out(train, n, c.OutC, outH, outW)
	c.w = operand(c.precision, &c.wRound, c.Weight.W)
	if train {
		c.x = x
		grow(&c.scratch.panel, k*n*l)
	}
	nb := blockSize(k, l, n)
	for s0 := 0; s0 < n; s0 += nb {
		b := min(nb, n-s0)
		col, rows := c.scratch.block(k, c.OutC, l, s0, b, train)
		tensor.Im2ColBlock(g, b, c.inputBlock(x.Data[s0*imLen:(s0+b)*imLen]), col.Data)
		if b == 1 {
			rows.Data = y.Data[s0*c.OutC*l : (s0+1)*c.OutC*l]
		}
		tensor.Gemm(false, false, 1, c.w, col, 0, rows)
		if b == 1 && !c.useBias {
			continue
		}
		// With b == 1, src is dst: the pass adds the bias in place.
		for s := 0; s < b; s++ {
			for oc := 0; oc < c.OutC; oc++ {
				src := rows.Data[(oc*b+s)*l : (oc*b+s+1)*l]
				dst := y.Data[((s0+s)*c.OutC+oc)*l:][:len(src)]
				if !c.useBias {
					copy(dst, src)
					continue
				}
				bias := c.Bias.W.Data[oc]
				for i, v := range src {
					dst[i] = v + bias
				}
			}
		}
	}
	return y
}

// inputBlock returns one block of the input as the lowering reads it: xb
// itself at F32, its copy rounded through binary16 at F16. im2col only
// copies values and writes +0 for padding, so lowering the rounded block
// gives the rounded panel — a KH·KW-th of the rounding work.
func (c *Conv2D) inputBlock(xb []float32) []float32 {
	if c.precision != tensor.F16 {
		return xb
	}
	return roundedCopy(&c.scratch.in, xb)
}

// Backward implements Layer. It needs the panels of a training Forward, and
// consumes them: per block it accumulates dW += dy_s·col_sᵀ sample by
// sample in batch order from the block's kept panel, then overwrites that
// panel with the block's Wᵀ·dY and scatters it into dx with one col2im. A
// Backward with no training Forward since the last one panics. Every
// gradient element sees the adds of a sample-at-a-time loop, in the same
// order. At F16 the kept panel is already the rounded input's, and the
// gathered dY rows are rounded in place; the bias gradient sums the
// unrounded dout.
func (c *Conv2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	return c.backward(dout, true)
}

// backwardParams is Backward without dx, for a first layer: no Wᵀ·dY GEMM,
// no col2im and no dx — only the dW products over the kept
// panels and the bias sums.
func (c *Conv2D) backwardParams(dout *tensor.Tensor) { c.backward(dout, false) }

func (c *Conv2D) backward(dout *tensor.Tensor, wantDx bool) *tensor.Tensor {
	x := c.x
	if x == nil {
		panic(fmt.Sprintf("nn: %s: Backward without a training Forward", c.name))
	}
	c.x = nil
	g := c.geom
	n := x.Shape[0]
	k, l := c.InC*c.KH*c.KW, g.OutH()*g.OutW()
	imLen := c.InC * g.InH * g.InW
	var dx *tensor.Tensor
	if wantDx {
		dx = c.acts.dx(x.Shape...)
	}
	nb := blockSize(k, l, n)
	for s0 := 0; s0 < n; s0 += nb {
		b := min(nb, n-s0)
		col, rows := c.scratch.block(k, c.OutC, l, s0, b, true)
		for s := 0; s < b; s++ {
			for oc := 0; oc < c.OutC; oc++ {
				copy(rows.Data[(oc*b+s)*l:(oc*b+s+1)*l], dout.Data[((s0+s)*c.OutC+oc)*l:((s0+s)*c.OutC+oc+1)*l])
			}
		}
		if c.precision == tensor.F16 {
			roundHalf(rows.Data)
		}
		gemmNTSamples(rows, col, b, l, c.Weight.G)
		if !wantDx {
			continue
		}
		// dx = col2im(Wᵀ · dY), written over the block's panel, which dW
		// no longer reads; c.w still holds this step's weights from Forward.
		tensor.Gemm(true, false, 1, c.w, rows, 0, col)
		dxb := dx.Data[s0*imLen : (s0+b)*imLen]
		clear(dxb) // col2im accumulates, and the slot holds the last step's dx
		tensor.Col2ImBlock(g, b, col.Data, dxb)
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

// gemmNTSamples accumulates c += Σ_s a_s·b_sᵀ over the nb samples of a block
// panel, in sample order: a is [m, nb·l] and b is [n, nb·l], and sample s
// owns columns [s·l, (s+1)·l) of both. Each sample's product is one strided
// NT kernel call, so every element of c sees the adds of nb separate
// tensor.Gemm(false, true, 1, a_s, b_s, 1, c) calls in the same order, while
// the rows of c fan out across goroutines once per block rather than once
// per sample.
func gemmNTSamples(a, b *tensor.Tensor, nb, l int, c *tensor.Tensor) {
	m, n, ld := c.Shape[0], c.Shape[1], nb*l
	defer kernel.StartPhase(kernel.PhaseGemm).End()
	grain := 1
	if work := ld * n; work < 4096 {
		grain = 4096/work + 1
	}
	par.ForGrain(m, grain, func(lo, hi int) {
		cd := c.Data[lo*n : hi*n]
		for s := 0; s < nb; s++ {
			kernel.GemmNTStrided(hi-lo, n, l, 1, a.Data[lo*ld+s*l:], ld, b.Data[s*l:], ld, 1, cd)
		}
	})
}
