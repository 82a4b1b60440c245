package nn

import (
	"fmt"

	"repro/internal/par"
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
	acts acts // the sum's training and eval slots, and dx's
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

// Forward implements Layer. Both branches run over the whole of x: the
// block is inside its network's chunk.
func (l *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	main := l.Body.forward(x, train)
	sc := x
	if l.Shortcut != nil {
		sc = l.Shortcut.forward(x, train)
	}
	return l.relu.Forward(addInto(l.acts.out(train, main.Shape...), main, sc), train)
}

// Backward implements Layer.
func (l *Residual) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dsum := l.relu.Backward(dout)
	dx := l.Body.Backward(dsum)
	dsc := dsum // identity shortcut: the gradient adds directly
	if l.Shortcut != nil {
		dsc = l.Shortcut.Backward(dsum)
	}
	return addInto(l.acts.dx(dx.Shape...), dx, dsc)
}

// addInto writes a + b into dst and returns it.
func addInto(dst, a, b *tensor.Tensor) *tensor.Tensor {
	if len(a.Data) != len(b.Data) {
		panic(fmt.Sprintf("nn: residual branches disagree: %v vs %v", a.Shape, b.Shape))
	}
	d, ad, bd := dst.Data, a.Data, b.Data
	par.For(len(d), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			d[i] = ad[i] + bd[i]
		}
	})
	return dst
}
