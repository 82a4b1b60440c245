// Package nn implements the neural-network layers used to reproduce the
// paper's models: convolutions, fully-connected layers, batch normalization,
// local response normalization (the AlexNet original; the paper swaps it for
// BN at batch 32K), pooling, ReLU, dropout, residual blocks and the
// softmax-cross-entropy loss.
//
// Every layer implements exact reverse-mode gradients (validated against
// finite differences in the tests). Gradients accumulate into Param.G so a
// batch can be processed in micro-batches: the dist engine clears each
// shard's flat gradient once and runs its chunks into it; a caller driving
// a Network directly calls Network.ZeroGrad between optimizer steps.
//
// A product that feeds an add or a subtract is converted explicitly
// (float32(g*x) + b): the Go compiler may fuse x*y+z into one multiply-add
// (it does on arm64) unless a conversion rounds the product, and a fused
// product would move the bits the amd64 and 386 builds pin.
//
// BatchNorm, MaxPool2D and ReLU record what Backward reads only on a
// training Forward, and Backward consumes it: an eval Forward (train ==
// false) records nothing, so a Backward after one panics naming the layer.
//
// A layer owns its activations: it writes its output, its input gradient
// and what it caches into slots it reuses call after call (see scratch.go),
// so a warm step allocates no activation. A training Forward's result stays
// valid until that layer's (or network's) next training Forward, and a
// Backward's until the next Backward. Network.Forward in eval mode runs the
// batch in chunks of at most evalChunk rows through the eval slots and
// returns a fresh tensor the caller owns: eval memory does not grow with the
// batch, and no later call overwrites an eval result. Eval is per-sample in
// every layer, so the chunked result is bit-identical to a one-pass eval.
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

// Layer is a differentiable module. A training Forward caches whatever
// Backward needs; Backward consumes the gradient w.r.t. the layer output and
// returns the gradient w.r.t. the layer input, accumulating parameter
// gradients on the way.
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

	// chunk is the header an eval Forward points at each chunk of its input.
	chunk tensor.Tensor

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

// evalChunk bounds the rows one eval pass runs through the layers' eval
// slots: a serve batch of up to 16 images is one chunk, and a larger eval
// batch costs the memory of one chunk, not of the batch.
const evalChunk = 16

// Forward runs all layers in order. A training Forward returns the last
// layer's output slot, valid until this network's next training Forward. An
// eval Forward runs x in chunks of at most evalChunk rows and copies each
// chunk's output into one fresh tensor, which the caller owns.
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		return n.forward(x, true)
	}
	rows, per := x.Shape[0], 0
	if rows > 0 {
		per = len(x.Data) / rows
	}
	var y *tensor.Tensor
	for lo, off := 0, 0; ; lo += evalChunk {
		hi := min(lo+evalChunk, rows)
		n.chunk.Shape = append(append(n.chunk.Shape[:0], hi-lo), x.Shape[1:]...)
		n.chunk.Data = x.Data[lo*per : hi*per]
		yc := n.forward(&n.chunk, false)
		if y == nil {
			y = tensor.New(append([]int{rows}, yc.Shape[1:]...)...)
		}
		off += copy(y.Data[off:], yc.Data)
		if hi == rows {
			return y
		}
	}
}

// forward runs all layers in order over the whole of x: a Residual's
// branches run through it, inside their block's chunk.
func (n *Network) forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range n.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward runs all layers in reverse order and returns the gradient with
// respect to the network's input. When a gradient-ready callback is
// registered (SetGradNotify), it fires for each parameter as soon as the
// owning layer's backward completes — the hook distributed engines use to
// overlap gradient reduction with the rest of the backward pass.
func (n *Network) Backward(dout *tensor.Tensor) *tensor.Tensor {
	return n.backward(dout, true)
}

// BackwardParams is Backward for a caller that needs only the parameter
// gradients, as a trainer whose first layer reads the input batch does: the
// parameter gradients and the notifications are Backward's, but a Linear or
// Conv2D first layer computes no input gradient (no dx GEMM, no col2im).
func (n *Network) BackwardParams(dout *tensor.Tensor) {
	n.backward(dout, false)
}

// paramsBackward is implemented by layers that can accumulate their
// parameter gradients without computing the input gradient.
type paramsBackward interface {
	backwardParams(dout *tensor.Tensor)
}

func (n *Network) backward(dout *tensor.Tensor, wantDx bool) *tensor.Tensor {
	if n.gradNotify != nil && len(n.notifyBase) != len(n.Layers)+1 {
		n.notifyBase = make([]int, len(n.Layers)+1)
		for i, l := range n.Layers {
			n.notifyBase[i+1] = n.notifyBase[i] + len(l.Params())
		}
	}
	for i := len(n.Layers) - 1; i >= 0; i-- {
		if pb, ok := n.Layers[i].(paramsBackward); ok && i == 0 && !wantDx {
			pb.backwardParams(dout)
			dout = nil
		} else {
			dout = n.Layers[i].Backward(dout)
		}
		if n.gradNotify == nil {
			continue
		}
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
// change; gradients flow through as a reshape as well. Its slots are views
// of its input's and its gradient's storage.
type Flatten struct {
	inShape []int
	views   acts
}

// NewFlatten returns a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Name implements Layer.
func (f *Flatten) Name() string { return "flatten" }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := &f.views.eval
	if train {
		f.inShape = append(f.inShape[:0], x.Shape...)
		y = &f.views.train
	}
	features := 1
	for _, d := range x.Shape[1:] {
		features *= d
	}
	y.Shape = append(y.Shape[:0], x.Shape[0], features)
	y.Data = x.Data
	return y
}

// Backward implements Layer.
func (f *Flatten) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dx := &f.views.grad
	dx.Shape = append(dx.Shape[:0], f.inShape...)
	dx.Data = dout.Data
	return dx
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }
