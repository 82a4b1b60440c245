package nn

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Linear is a fully-connected layer: y = x·Wᵀ + b for x of shape [N, in].
// Weights have shape [out, in] so each output unit's weights are contiguous.
type Linear struct {
	name         string
	In, Out      int
	Weight, Bias *Param

	// Storage precision of the GEMM operands (see Conv2D): binary16
	// copies at F16, float32 master weights and gradients always.
	precision tensor.Precision
	w         operand // Weight.W, packed once per Forward and reused by Backward
	x         operand // input batch, packed in Forward and kept for Backward's dW

	wHalf, xHalf, dyHalf tensor.Half // storage of w, x and dout at F16
}

// NewLinear constructs a fully-connected layer with He initialization.
func NewLinear(name string, r *rng.Rand, in, out int) *Linear {
	l := &Linear{name: name, In: in, Out: out}
	l.Weight = NewParam(name+".weight", out, in)
	l.Weight.W.FillNormal(r, 0, tensor.HeStd(in))
	l.Bias = NewParam(name+".bias", out)
	l.Bias.NoDecay = true
	return l
}

// Name implements Layer.
func (l *Linear) Name() string { return l.name }

// SetPrecision implements PrecisionLayer.
func (l *Linear) SetPrecision(p tensor.Precision) { l.precision = p }

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// Forward implements Layer.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 2 || x.Shape[1] != l.In {
		panic(fmt.Sprintf("nn: %s: want [N,%d] input, got %v", l.name, l.In, x.Shape))
	}
	n := x.Shape[0]
	y := tensor.New(n, l.Out)
	// y = x · Wᵀ
	l.x = pack(l.precision, &l.xHalf, x)
	l.w = pack(l.precision, &l.wHalf, l.Weight.W)
	gemm(false, true, 1, l.x, l.w, 0, y)
	bd := l.Bias.W.Data
	for s := 0; s < n; s++ {
		row := y.Data[s*l.Out : (s+1)*l.Out]
		for j := range row {
			row[j] += bd[j]
		}
	}
	return y
}

// Backward implements Layer.
func (l *Linear) Backward(dout *tensor.Tensor) *tensor.Tensor {
	n := dout.Shape[0]
	// dW += doutᵀ · x
	dy := pack(l.precision, &l.dyHalf, dout)
	gemm(true, false, 1, dy, l.x, 1, l.Weight.G)
	// db += column sums of dout
	gd := l.Bias.G.Data
	for s := 0; s < n; s++ {
		row := dout.Data[s*l.Out : (s+1)*l.Out]
		for j, v := range row {
			gd[j] += v
		}
	}
	// dx = dout · W
	dx := tensor.New(n, l.In)
	gemm(false, false, 1, dy, l.w, 0, dx)
	return dx
}
