package nn

import (
	"repro/internal/tensor"
)

// Residual implements a ResNet block: y = ReLU(Body(x) + Shortcut(x)).
// Shortcut may be nil for the identity connection, or a projection
// (1×1 conv + BN) when the block changes resolution or channel count.
type Residual struct {
	name     string
	Body     *Network
	Shortcut *Network // nil means identity

	relu *ReLU
}

// NewResidual builds a residual block.
func NewResidual(name string, body *Network, shortcut *Network) *Residual {
	return &Residual{name: name, Body: body, Shortcut: shortcut, relu: NewReLU(name + ".relu")}
}

// Name implements Layer.
func (l *Residual) Name() string { return l.name }

// SetPrecision implements PrecisionLayer, forwarding to both branches: the
// network-level walk sees only top-level layers, and a block's convolutions
// live one level down.
func (l *Residual) SetPrecision(p tensor.Precision) {
	l.Body.SetPrecision(p)
	if l.Shortcut != nil {
		l.Shortcut.SetPrecision(p)
	}
}

// Params implements Layer.
func (l *Residual) Params() []*Param {
	ps := l.Body.Params()
	if l.Shortcut != nil {
		ps = append(ps, l.Shortcut.Params()...)
	}
	return ps
}

// Forward implements Layer.
func (l *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	main := l.Body.Forward(x, train)
	var sc *tensor.Tensor
	if l.Shortcut != nil {
		sc = l.Shortcut.Forward(x, train)
	} else {
		sc = x
	}
	sum := main.Clone()
	sum.Add(sc)
	return l.relu.Forward(sum, train)
}

// Backward implements Layer.
func (l *Residual) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dsum := l.relu.Backward(dout)
	dx := l.Body.Backward(dsum)
	if l.Shortcut != nil {
		dsc := l.Shortcut.Backward(dsum)
		dx = dx.Clone()
		dx.Add(dsc)
	} else {
		// Identity shortcut: gradient adds directly.
		dx = dx.Clone()
		dx.Add(dsum)
	}
	return dx
}
