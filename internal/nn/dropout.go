package nn

import (
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Dropout randomly zeroes activations with probability P during training,
// scaling survivors by 1/(1−P) ("inverted dropout") so evaluation is a
// no-op. AlexNet uses P=0.5 on its first two fully-connected layers.
type Dropout struct {
	name string
	P    float32
	r    *rng.Rand
	mask []float32
	acts acts
}

// NewDropout returns a dropout layer with drop probability p, drawing masks
// from r. Each replica should receive an independent generator.
func NewDropout(name string, r *rng.Rand, p float32) *Dropout {
	return &Dropout{name: name, P: p, r: r}
}

// Name implements Layer.
func (l *Dropout) Name() string { return l.name }

// Params implements Layer.
func (l *Dropout) Params() []*Param { return nil }

// Forward implements Layer.
func (l *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || l.P <= 0 {
		l.mask = l.mask[:0]
		return x
	}
	grow(&l.mask, x.Numel())
	keep := 1 - l.P
	scale := 1 / keep
	y := l.acts.out(true, x.Shape...)
	for i, v := range x.Data {
		if l.r.Float32() < keep {
			l.mask[i] = scale
			y.Data[i] = v * scale
		} else {
			l.mask[i] = 0
			y.Data[i] = 0
		}
	}
	return y
}

// Backward implements Layer.
func (l *Dropout) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if len(l.mask) == 0 {
		return dout
	}
	dx := l.acts.dx(dout.Shape...)
	for i, v := range dout.Data {
		dx.Data[i] = v * l.mask[i]
	}
	return dx
}
