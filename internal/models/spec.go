// Package models describes each network once, as a recipe: a ModelSpec whose
// Layers record kind, channel widths, kernel geometry and the feeding layer
// of every layer, written by the specBuilder functions (AlexNetSpec,
// ResNet50Spec, MicroAlexNetSpec, ...). Two things are derived from it:
//
//   - costs at any input resolution — Replay/At compute every layer's output
//     shape, parameter count and MACs, which drive Table 6 (scaling ratio =
//     computation/communication), the communication-volume analysis of
//     Figures 8-10 and the cluster simulator, where only |W| and the
//     per-image FLOP count matter, not trained weights;
//
//   - the trainable network — Build allocates the nn layers the recipe
//     lists, so a model's accounting and its weights cannot drift apart.
//
// Micro and FullSize resolve a model name through the package's one table
// and return an error for a recipe that cannot be built at the requested
// size; the XSpec functions are their panicking forms for known-good
// configurations.
package models

import (
	"fmt"
	"strings"

	"repro/internal/tensor"
)

// LayerSpec records the cost-model-relevant facts about one layer.
type LayerSpec struct {
	Name   string
	Kind   string // "conv", "fc", "bn", "lrn", "pool", "relu", "dropout", "gap"
	Params int64  // learnable scalars
	MACs   int64  // multiply-accumulate operations per image
	// Output activation shape (channels, height, width). Fully-connected
	// layers use OutC with OutH = OutW = 1.
	OutC, OutH, OutW int

	// The recipe, recorded by specBuilder: with OutC (conv, fc), enough to
	// compute Params, MACs and output dims at any model input resolution
	// (At — which is also how the canonical spec's own numbers are
	// produced). In is the index of the feeding layer (-1 = model input) —
	// branches like ResNet projection shortcuts feed from an earlier layer
	// than their list predecessor. K doubles as the LRN window. Replay is
	// only defined for builder-produced specs.
	In     int
	K      int
	Stride int
	Pad    int
	Groups int
	Bias   bool
	// Block names the residual block the layer belongs to ("" = none) and
	// Shortcut marks the layers of its projection branch; the block's last
	// layer is the ReLU applied to the sum. Only Build reads them.
	Block    string
	Shortcut bool
}

// ModelSpec is an ordered stack of LayerSpecs plus the input geometry.
type ModelSpec struct {
	Name                   string
	InputC, InputH, InputW int
	Classes                int
	Layers                 []LayerSpec
}

// ParamCount returns |W|: the number of learnable scalars, which is also the
// per-iteration communication volume (in words) of synchronous SGD.
func (m *ModelSpec) ParamCount() int64 {
	var n int64
	for _, l := range m.Layers {
		n += l.Params
	}
	return n
}

// MACsPerImage returns the multiply-accumulates of one forward pass.
func (m *ModelSpec) MACsPerImage() int64 {
	var n int64
	for _, l := range m.Layers {
		n += l.MACs
	}
	return n
}

// FLOPsPerImage counts one multiply-accumulate as two floating-point
// operations, matching the paper's "1.5 billion" (AlexNet) and "7.7 billion"
// (ResNet-50) per-image numbers in Table 6.
func (m *ModelSpec) FLOPsPerImage() int64 { return 2 * m.MACsPerImage() }

// TrainFLOPsPerImage approximates the full forward+backward cost as 3x the
// forward pass, the standard accounting the paper's 10^18-operations claim
// for 90-epoch ResNet-50 training is built on.
func (m *ModelSpec) TrainFLOPsPerImage() int64 { return 3 * m.FLOPsPerImage() }

// Replay replays the spec's recipe at input resolution h×w — the one place a
// layer's geometry, Params and MACs arithmetic is written (the builder's
// build() is Replay at the canonical input): every layer's output dims, MACs,
// and (for layers whose parameters depend on the activation size, i.e. fc
// after flatten) Params are computed from the recipe fields while channel
// widths and kernel geometry stay fixed. GAP-headed models
// keep their exact ParamCount at every resolution; flatten→fc models
// change |W| with resolution, which Replay reports faithfully — callers that
// require a fixed weight vector (the distributed engine, the simulator's
// comm pricing) must check ParamCount invariance. A resolution the recipe
// cannot absorb (a kernel wider than its padded input, an empty flatten) is
// an error naming the layer. Only defined for specs produced by this
// package's builder (the recipe fields must be set).
func (m *ModelSpec) Replay(h, w int) (*ModelSpec, error) {
	if m.InputC <= 0 || h <= 0 || w <= 0 {
		return nil, m.errorf("input %dx%dx%d must be positive", m.InputC, h, w)
	}
	out := &ModelSpec{Name: m.Name, InputC: m.InputC, InputH: h, InputW: w, Classes: m.Classes,
		Layers: make([]LayerSpec, len(m.Layers))}
	for i, l := range m.Layers {
		inC, inH, inW := out.in(l)
		nl := l
		switch l.Kind {
		case "conv":
			outH, outW := window(l, inH, inW)
			if outH <= 0 || outW <= 0 {
				return nil, m.errorf("conv %s output empty at input %dx%d", l.Name, h, w)
			}
			nl.Params = int64(l.OutC) * int64(inC/l.Groups) * int64(l.K*l.K)
			if l.Bias {
				nl.Params += int64(l.OutC)
			}
			nl.MACs = int64(inC/l.Groups) * int64(l.K*l.K) * int64(l.OutC) * int64(outH*outW)
			nl.OutH, nl.OutW = outH, outW
		case "fc":
			in := int64(inC) * int64(inH) * int64(inW)
			nl.Params = in * int64(l.OutC)
			if l.Bias {
				nl.Params += int64(l.OutC)
			}
			nl.MACs = in * int64(l.OutC)
			nl.OutH, nl.OutW = 1, 1
		case "bn":
			nl.Params = 2 * int64(inC)
			nl.MACs = 2 * int64(inC) * int64(inH*inW)
			nl.OutC, nl.OutH, nl.OutW = inC, inH, inW
		case "lrn":
			nl.MACs = int64(l.K) * int64(inC) * int64(inH*inW)
			nl.OutC, nl.OutH, nl.OutW = inC, inH, inW
		case "pool":
			outH, outW := window(l, inH, inW)
			if outH <= 0 || outW <= 0 {
				return nil, m.errorf("pool %s output empty at input %dx%d", l.Name, h, w)
			}
			nl.MACs = int64(l.K*l.K) * int64(inC) * int64(outH*outW) / 2
			nl.OutC, nl.OutH, nl.OutW = inC, outH, outW
		case "gap":
			nl.MACs = int64(inC) * int64(inH*inW) / 2
			nl.OutC, nl.OutH, nl.OutW = inC, 1, 1
		case "relu", "dropout":
			nl.OutC, nl.OutH, nl.OutW = inC, inH, inW
		default:
			return nil, m.errorf("cannot replay layer kind %q", l.Kind)
		}
		out.Layers[i] = nl
	}
	return out, nil
}

// At is Replay for a resolution known to fit: it panics with Replay's error.
func (m *ModelSpec) At(h, w int) *ModelSpec { return must(m.Replay(h, w)) }

func must(m *ModelSpec, err error) *ModelSpec {
	if err != nil {
		panic(err)
	}
	return m
}

func (m *ModelSpec) errorf(format string, a ...any) error {
	return fmt.Errorf("models: %s: %s", m.Name, fmt.Sprintf(format, a...))
}

// in returns the shape of the activation feeding l: the output of layer
// l.In, or the model input.
func (m *ModelSpec) in(l LayerSpec) (c, h, w int) {
	if l.In < 0 {
		return m.InputC, m.InputH, m.InputW
	}
	f := m.Layers[l.In]
	return f.OutC, f.OutH, f.OutW
}

// window is the output extent of layer l's K×K window over an inH×inW
// input, by the rule the nn layers run (tensor.ConvGeom): 0 where the
// window does not fit even once.
func window(l LayerSpec, inH, inW int) (outH, outW int) {
	g := tensor.ConvGeom{InH: inH, InW: inW, KH: l.K, KW: l.K, StrideH: l.Stride, StrideW: l.Stride, PadH: l.Pad, PadW: l.Pad}
	return g.OutH(), g.OutW()
}

// FLOPsPerImageAt returns FLOPsPerImage recomputed at input resolution h×w;
// at the canonical (InputH, InputW) it equals FLOPsPerImage exactly.
func (m *ModelSpec) FLOPsPerImageAt(h, w int) int64 { return m.At(h, w).FLOPsPerImage() }

// TrainFLOPsPerImageAt is the 3x forward+backward accounting at input h×w.
func (m *ModelSpec) TrainFLOPsPerImageAt(h, w int) int64 { return 3 * m.FLOPsPerImageAt(h, w) }

// ScalingRatio is Table 6's computation-to-communication ratio:
// FLOPs per image divided by parameter count. Models with a higher ratio
// (ResNet-50: ~308) scale more easily than low-ratio models (AlexNet: ~24.6).
func (m *ModelSpec) ScalingRatio() float64 {
	return float64(m.FLOPsPerImage()) / float64(m.ParamCount())
}

// WeightBytes returns the size of one float32 weight (= gradient) message.
func (m *ModelSpec) WeightBytes() int64 { return 4 * m.ParamCount() }

// String renders a layer-by-layer summary table.
func (m *ModelSpec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (input %dx%dx%d, %d classes)\n", m.Name, m.InputC, m.InputH, m.InputW, m.Classes)
	fmt.Fprintf(&b, "%-18s %-8s %12s %14s %s\n", "layer", "kind", "params", "MACs", "output")
	for _, l := range m.Layers {
		fmt.Fprintf(&b, "%-18s %-8s %12d %14d %dx%dx%d\n", l.Name, l.Kind, l.Params, l.MACs, l.OutC, l.OutH, l.OutW)
	}
	fmt.Fprintf(&b, "total params %d, MACs/image %d, FLOPs/image %d, ratio %.1f\n",
		m.ParamCount(), m.MACsPerImage(), m.FLOPsPerImage(), m.ScalingRatio())
	return b.String()
}

// specBuilder records a model's recipe: each layer's kind, its geometry
// (OutC, K, Stride, Pad, Groups, Bias) and the index of the layer feeding it
// (LayerSpec.In, so Replay can follow branches). It computes no shapes,
// Params or MACs itself — build() replays the recipe at the canonical input
// through Replay, the one place that arithmetic lives — and tracks only what
// recording needs: the running channel count (conv's group check, residual
// branches), the cursor, and the first recording error (a layer of zero width),
// which build() returns.
type specBuilder struct {
	m    *ModelSpec
	c    int // channels of the current activation
	from int // index of the layer producing it; -1 = input
	err  error

	block    string // residual block being recorded, stamped on its layers
	shortcut bool   // recording that block's projection branch
}

func newSpecBuilder(name string, inC, inH, inW, classes int) *specBuilder {
	return &specBuilder{
		m: &ModelSpec{Name: name, InputC: inC, InputH: inH, InputW: inW, Classes: classes},
		c: inC, from: -1,
	}
}

// push appends a layer with the feeding-cursor recorded and advances the
// cursor to it.
func (b *specBuilder) push(l LayerSpec) *specBuilder {
	l.In, l.Block, l.Shortcut = b.from, b.block, b.shortcut
	b.m.Layers = append(b.m.Layers, l)
	b.from = len(b.m.Layers) - 1
	return b
}

// widen moves the running channel count to a conv's or fc's output width,
// which must be positive: a zero-width layer would allocate empty weights.
func (b *specBuilder) widen(kind, name string, outC int) {
	if outC <= 0 && b.err == nil {
		b.err = b.m.errorf("%s %s has %d output channels", kind, name, outC)
	}
	b.c = outC
}

// conv appends a convolution. groups models AlexNet's two-tower grouped
// convolutions: parameters and MACs divide by the group count.
func (b *specBuilder) conv(name string, outC, k, stride, pad, groups int, bias bool) *specBuilder {
	if (b.c%groups != 0 || outC%groups != 0) && b.err == nil {
		b.err = b.m.errorf("conv %s groups %d do not divide channels", name, groups)
	}
	b.widen("conv", name, outC)
	return b.push(LayerSpec{Name: name, Kind: "conv", OutC: outC, K: k, Stride: stride, Pad: pad, Groups: groups, Bias: bias})
}

// fc appends a biased fully-connected layer consuming the flattened
// activation.
func (b *specBuilder) fc(name string, out int) *specBuilder {
	b.widen("fc", name, out)
	return b.push(LayerSpec{Name: name, Kind: "fc", OutC: out, Bias: true})
}

// bn appends batch normalization: 2 learnable scalars per channel and ~4 ops
// per activation (counted as 2 MACs).
func (b *specBuilder) bn(name string) *specBuilder {
	return b.push(LayerSpec{Name: name, Kind: "bn"})
}

// lrn appends local response normalization (no parameters; ~windowSize MACs
// per activation).
func (b *specBuilder) lrn(name string, window int) *specBuilder {
	return b.push(LayerSpec{Name: name, Kind: "lrn", K: window})
}

// relu appends an activation (no parameters, negligible MACs).
func (b *specBuilder) relu(name string) *specBuilder {
	return b.push(LayerSpec{Name: name, Kind: "relu"})
}

// dropout appends a dropout layer (no parameters or MACs).
func (b *specBuilder) dropout(name string) *specBuilder {
	return b.push(LayerSpec{Name: name, Kind: "dropout"})
}

// maxpool appends max pooling.
func (b *specBuilder) maxpool(name string, k, stride, pad int) *specBuilder {
	return b.push(LayerSpec{Name: name, Kind: "pool", K: k, Stride: stride, Pad: pad})
}

// gap appends global average pooling down to 1x1.
func (b *specBuilder) gap(name string) *specBuilder {
	return b.push(LayerSpec{Name: name, Kind: "gap"})
}

// residual records one residual block: body appends the main branch; when
// the block changes the channel count to out or strides, a projection
// shortcut (1x1 conv + BN) is appended fed from the block input — the cursor
// branches back to the block's entry so the recipe records the true feeding
// layer, then returns to the body's end — and the closing ReLU (name+relu) takes the body geometry, which is
// the elementwise sum's.
func (b *specBuilder) residual(name string, out, stride int, relu string, body func()) {
	inC, entry := b.c, b.from
	b.block = name
	body()
	sumC, sum := b.c, b.from
	if inC != out || stride != 1 {
		b.c, b.from, b.shortcut = inC, entry, true
		b.conv(name+".down", out, 1, stride, 0, 1, false).bn(name + ".downbn")
		b.c, b.from, b.shortcut = sumC, sum, false
	}
	b.relu(name + relu)
	b.block = ""
}

// build replays the recorded recipe at the canonical input resolution.
func (b *specBuilder) build() (*ModelSpec, error) {
	if b.err != nil {
		return nil, b.err
	}
	return b.m.Replay(b.m.InputH, b.m.InputW)
}
