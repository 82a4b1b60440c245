// Package nn implements the neural-network layers used to reproduce the
// paper's models: convolutions, fully-connected layers, batch normalization,
// local response normalization (the AlexNet original; the paper swaps it for
// BN at batch 32K), pooling, ReLU, dropout, residual blocks and the
// softmax-cross-entropy loss.
//
// Every layer implements exact reverse-mode gradients (validated against
// finite differences in the tests). Gradients accumulate into Param.G so a
// batch can be processed in micro-batches; call Network.ZeroGrad between
// optimizer steps.
//
// A Layer instance owns scratch buffers and cached activations, so it must
// not be shared between goroutines. Data-parallel training (internal/dist)
// gives each worker its own replica and synchronizes parameters explicitly,
// which is exactly the structure of the paper's synchronous SGD.
package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Param is one learnable tensor together with its gradient accumulator.
// LARS operates on Params: each Param gets its own trust ratio computed from
// ‖W‖ and ‖G‖ (the "layer-wise" in Layer-wise Adaptive Rate Scaling).
type Param struct {
	Name string
	W    *tensor.Tensor // value
	G    *tensor.Tensor // gradient accumulator, same shape as W
	// NoDecay marks parameters conventionally excluded from weight decay
	// and from LARS scaling (biases, batch-norm gain/shift).
	NoDecay bool
}

// NewParam allocates a parameter and its gradient with the given shape.
func NewParam(name string, shape ...int) *Param {
	return &Param{Name: name, W: tensor.New(shape...), G: tensor.New(shape...)}
}

// Numel returns the number of scalar weights.
func (p *Param) Numel() int { return p.W.Numel() }

// Layer is a differentiable module. Forward caches whatever Backward needs;
// Backward consumes the gradient w.r.t. the layer output and returns the
// gradient w.r.t. the layer input, accumulating parameter gradients on the
// way.
type Layer interface {
	// Name identifies the layer in logs and LARS statistics.
	Name() string
	// Forward computes the layer output. train selects training behaviour
	// (batch statistics, dropout masks).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward propagates dout (gradient w.r.t. the last Forward output)
	// and returns the gradient w.r.t. that Forward's input.
	Backward(dout *tensor.Tensor) *tensor.Tensor
	// Params returns the learnable parameters, possibly empty.
	Params() []*Param
}

// Network is an ordered sequence of layers behaving as a single Layer.
type Network struct {
	name   string
	Layers []Layer

	// gradNotify, when set, is invoked during Backward as parameter
	// gradients become final (see SetGradNotify). notifyBase caches the
	// starting Params() index of each layer for the callback.
	gradNotify func(param int)
	notifyBase []int
}

// NewNetwork builds a sequential network.
func NewNetwork(name string, layers ...Layer) *Network {
	return &Network{name: name, Layers: layers}
}

// Name returns the network's identifying name.
func (n *Network) Name() string { return n.name }

// Add appends layers.
func (n *Network) Add(layers ...Layer) { n.Layers = append(n.Layers, layers...) }

// Forward runs all layers in order.
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range n.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward runs all layers in reverse order. When a gradient-ready callback
// is registered (SetGradNotify), it fires for each parameter as soon as the
// owning layer's backward completes — the hook distributed engines use to
// overlap gradient reduction with the rest of the backward pass.
func (n *Network) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if n.gradNotify == nil {
		for i := len(n.Layers) - 1; i >= 0; i-- {
			dout = n.Layers[i].Backward(dout)
		}
		return dout
	}
	if len(n.notifyBase) != len(n.Layers)+1 {
		n.notifyBase = make([]int, len(n.Layers)+1)
		for i, l := range n.Layers {
			n.notifyBase[i+1] = n.notifyBase[i] + len(l.Params())
		}
	}
	for i := len(n.Layers) - 1; i >= 0; i-- {
		dout = n.Layers[i].Backward(dout)
		// Parameters land in reverse Params() order: the network's last
		// parameter is ready first, parameter 0 last.
		for p := n.notifyBase[i+1] - 1; p >= n.notifyBase[i]; p-- {
			n.gradNotify(p)
		}
	}
	return dout
}

// SetGradNotify registers fn to be called during every Backward as parameter
// gradients become final, with the parameter's index in Params() order. A
// layer's parameters are reported (highest index first) immediately after
// that layer's Backward returns — while earlier layers are still
// back-propagating — which is the moment a data-parallel engine can start
// reducing them. Because gradients accumulate into Param.G, "final" means
// final for the current Backward call: callers accumulating over
// micro-batches see one notification per call. nil unregisters the hook.
func (n *Network) SetGradNotify(fn func(param int)) {
	n.gradNotify = fn
	n.notifyBase = nil
}

// PrecisionLayer is implemented by layers that own a reduced-precision
// compute path (Conv2D, Linear) or contain layers that do (GroupedConv2D,
// Residual). SetPrecision selects the
// numeric precision of the layer's GEMM operands; parameters themselves
// always stay float32 masters.
type PrecisionLayer interface {
	SetPrecision(p tensor.Precision)
}

// SetPrecision selects the compute precision of every layer that implements
// PrecisionLayer; the remaining layers (activations, pooling, BN, loss)
// always run float32. With tensor.F16 the conv/fc hot path rounds its GEMM
// operands through binary16 and accumulates in float32, while the trainer
// keeps float32 master weights — the mixed-precision recipe the paper credits for
// NVIDIA's half-precision DGX-1 result.
func (n *Network) SetPrecision(p tensor.Precision) {
	for _, l := range n.Layers {
		if pl, ok := l.(PrecisionLayer); ok {
			pl.SetPrecision(p)
		}
	}
}

// Params returns the parameters of all layers in order.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrad clears every parameter gradient.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.G.Zero()
	}
}

// NumParams returns the total number of scalar weights, the |W| of the
// paper's communication-volume analysis.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += p.Numel()
	}
	return total
}

// CopyWeightsFrom copies all parameter values (not gradients) from src.
// Both networks must have identical architecture. It is how dist workers
// receive the broadcast global weights.
func (n *Network) CopyWeightsFrom(src *Network) {
	dst, s := n.Params(), src.Params()
	if len(dst) != len(s) {
		panic(fmt.Sprintf("nn: CopyWeightsFrom: %d params vs %d", len(dst), len(s)))
	}
	for i := range dst {
		dst[i].W.CopyFrom(s[i].W)
	}
}

// Flatten reshapes [N, ...] activations to [N, features]. It is a pure view
// change; gradients flow through as a reshape as well.
type Flatten struct {
	inShape []int
}

// NewFlatten returns a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Name implements Layer.
func (f *Flatten) Name() string { return "flatten" }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.inShape = append(f.inShape[:0], x.Shape...)
	return x.Reshape(x.Shape[0], -1)
}

// Backward implements Layer.
func (f *Flatten) Backward(dout *tensor.Tensor) *tensor.Tensor {
	return dout.Reshape(f.inShape...)
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }
