package nn

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/par"
	"repro/internal/tensor"
)

// ReLU is the rectified linear unit, y = max(x, 0), with the exact rule
// x > 0 ? x : +0 (NaN and −0 give +0). It keeps no mask: Backward reads the
// training Forward's output, since y > 0 exactly where x > 0, and releases
// it. An eval Forward keeps nothing.
type ReLU struct {
	name string
	y    *tensor.Tensor // the last training Forward's output, until Backward
	acts acts
}

// NewReLU returns a ReLU activation layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name implements Layer.
func (l *ReLU) Name() string { return l.name }

// Params implements Layer.
func (l *ReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (l *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := l.acts.out(train, x.Shape...)
	xd, yd := x.Data, y.Data
	par.For(len(yd), func(lo, hi int) { kernel.ReLU(yd[lo:hi], xd[lo:hi]) })
	l.y = nil
	if train {
		l.y = y
	}
	return y
}

// Backward implements Layer.
func (l *ReLU) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if l.y == nil {
		panic(fmt.Sprintf("nn: %s: Backward without a training Forward", l.name))
	}
	dx := l.acts.dx(dout.Shape...)
	dd, yd, gd := dx.Data, l.y.Data, dout.Data
	par.For(len(dd), func(lo, hi int) { kernel.ReLUBackward(dd[lo:hi], yd[lo:hi], gd[lo:hi]) })
	l.y = nil
	return dx
}
