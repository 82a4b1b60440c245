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

	// Numeric precision of the GEMM operands (see Conv2D): at F16 copies
	// of x, W and dout rounded through binary16 in layer scratch, which the
	// F32 kernels then multiply; float32 master weights and gradients
	// always.
	precision tensor.Precision
	w         *tensor.Tensor // Weight.W as an operand, set by Forward and reused by Backward
	x         *tensor.Tensor // input batch as an operand, kept for Backward's dW

	wRound, xRound, dyRound tensor.Tensor // storage of w, x and dout at F16
	acts                    acts
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
	y := l.acts.out(train, n, l.Out)
	// y = x · Wᵀ
	l.x = operand(l.precision, &l.xRound, x)
	l.w = operand(l.precision, &l.wRound, l.Weight.W)
	tensor.Gemm(false, true, 1, l.x, l.w, 0, y)
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
	dy := l.paramGrads(dout)
	// dx = dout · W
	dx := l.acts.dx(dout.Shape[0], l.In)
	tensor.Gemm(false, false, 1, dy, l.w, 0, dx)
	return dx
}

// backwardParams is Backward without dx, for a first layer.
func (l *Linear) backwardParams(dout *tensor.Tensor) { l.paramGrads(dout) }

// paramGrads accumulates dW and db and returns dout as the GEMM operand
// (rounded at F16), which Backward's dx GEMM reuses.
func (l *Linear) paramGrads(dout *tensor.Tensor) *tensor.Tensor {
	n := dout.Shape[0]
	// dW += doutᵀ · x
	dy := operand(l.precision, &l.dyRound, dout)
	tensor.Gemm(true, false, 1, dy, l.x, 1, l.Weight.G)
	// db += column sums of dout (unrounded at either precision)
	gd := l.Bias.G.Data
	for s := 0; s < n; s++ {
		row := dout.Data[s*l.Out : (s+1)*l.Out]
		for j, v := range row {
			gd[j] += v
		}
	}
	return dy
}
