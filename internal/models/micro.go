package models

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/rng"
)

// MicroConfig configures the reduced trainable models used by the measured
// experiments. The full-size networks are faithful to the paper but far too
// expensive to train without the authors' 2048-node cluster; the micro
// variants keep the structural features that matter to the large-batch
// optimization question (conv stacks, BN, residual bottlenecks, dropout)
// at a scale a couple of CPU cores can train in seconds.
type MicroConfig struct {
	Classes int
	InC     int // input channels, typically 3
	InH     int
	InW     int
	Width   int    // base channel width
	Seed    uint64 // weight initialization seed
	UseLRN  bool   // MicroAlexNet only: original LRN instead of BN
}

func (c MicroConfig) withDefaults() MicroConfig {
	if c.Classes == 0 {
		c.Classes = 8
	}
	if c.InC == 0 {
		c.InC = 3
	}
	if c.InH == 0 {
		c.InH = 16
	}
	if c.InW == 0 {
		c.InW = c.InH
	}
	if c.Width == 0 {
		c.Width = 8
	}
	return c
}

// microAlexNet records a two-conv-block AlexNet analogue: conv → norm →
// relu → pool twice, then an FC head with dropout. With UseLRN it mirrors
// the original AlexNet normalization; without, the AlexNet-BN refit the
// paper requires for 32K batches. The flatten→fc head bakes the canonical
// H×W into |W|.
func microAlexNet(cfg MicroConfig) *specBuilder {
	cfg = cfg.withDefaults()
	w := cfg.Width
	b := newSpecBuilder(fmt.Sprintf("micro-alexnet-w%d", w), cfg.InC, cfg.InH, cfg.InW, cfg.Classes)
	block := func(i string, outC int) {
		b.conv("conv"+i, outC, 3, 1, 1, 1, cfg.UseLRN) // under BN, beta is the bias
		if cfg.UseLRN {
			b.lrn("norm"+i, 5)
		} else {
			b.bn("norm" + i)
		}
		b.relu("relu"+i).maxpool("pool"+i, 2, 2, 0)
	}
	block("1", w)
	block("2", 2*w)
	b.fc("fc1", 8*w).relu("relu3").dropout("drop1")
	return b.fc("fc2", cfg.Classes)
}

// microResNet records a reduced bottleneck ResNet: stem conv+BN, two stages
// of one bottleneck block each (the second strided), global average pooling
// and a linear classifier — ResNet-50's structure at toy scale.
func microResNet(cfg MicroConfig) *specBuilder {
	cfg = cfg.withDefaults()
	w := cfg.Width
	b := newSpecBuilder(fmt.Sprintf("micro-resnet-w%d", w), cfg.InC, cfg.InH, cfg.InW, cfg.Classes)
	b.conv("conv1", w, 3, 1, 1, 1, false).bn("bn1").relu("relu1")
	bottleneckSpec(b, "res2_1", w/2, 1)
	bottleneckSpec(b, "res3_1", w, 2)
	return b.gap("gap").fc("fc", cfg.Classes)
}

// microConvNet records the all-convolutional, GAP-headed micro model used by
// the progressive-resolution experiments: conv-relu stacks with two stride-2
// downsampling convs, global average pooling, and a linear classifier. Every
// layer computes its geometry from the incoming batch, so the same weights
// train and evaluate at any input resolution and ParamCount is the same at
// every one — which is what lets the simulator price a resolution
// curriculum with a constant communication volume. It deliberately has no
// batch normalization or dropout: BN batch statistics and per-replica
// dropout RNG would break bit-identity across worker counts, and the
// shape-agnostic regression grid trains this model across P/topologies.
func microConvNet(cfg MicroConfig) *specBuilder {
	cfg = cfg.withDefaults()
	w := cfg.Width
	b := newSpecBuilder(fmt.Sprintf("micro-convnet-w%d", w), cfg.InC, cfg.InH, cfg.InW, cfg.Classes)
	b.conv("conv1", w, 3, 1, 1, 1, true).relu("relu1")
	b.conv("conv2", 2*w, 3, 2, 1, 1, true).relu("relu2")
	b.conv("conv3", 2*w, 3, 1, 1, 1, true).relu("relu3")
	b.conv("conv4", 4*w, 3, 2, 1, 1, true).relu("relu4")
	return b.gap("gap").fc("fc", cfg.Classes)
}

// mlp records a plain two-hidden-layer perceptron baseline. It is the
// cheapest model that still shows the large-batch generalization gap, which
// makes it useful for fast tests of the optimizer machinery.
func mlp(cfg MicroConfig) *specBuilder {
	cfg = cfg.withDefaults()
	h := 8 * cfg.Width
	b := newSpecBuilder(fmt.Sprintf("mlp-h%d", h), cfg.InC, cfg.InH, cfg.InW, cfg.Classes)
	b.fc("fc1", h).relu("relu1")
	b.fc("fc2", h).relu("relu2")
	return b.fc("fc3", cfg.Classes)
}

// MicroAlexNetSpec returns the micro AlexNet's spec at cfg. Like the other
// XSpec functions it is for a configuration known to build: it panics where
// Micro returns an error.
func MicroAlexNetSpec(cfg MicroConfig) *ModelSpec { return must(microAlexNet(cfg).build()) }

// MicroConvNetSpec returns the GAP-headed all-conv micro model's spec at cfg.
func MicroConvNetSpec(cfg MicroConfig) *ModelSpec { return must(microConvNet(cfg).build()) }

// MLPSpec returns the two-hidden-layer perceptron's spec at cfg.
func MLPSpec(cfg MicroConfig) *ModelSpec { return must(mlp(cfg).build()) }

// NewMicroAlexNet builds MicroAlexNetSpec(cfg) with weights seeded by cfg.Seed.
func NewMicroAlexNet(cfg MicroConfig) *nn.Network {
	return MicroAlexNetSpec(cfg).Build(rng.New(cfg.Seed))
}

// NewMicroConvNet builds MicroConvNetSpec(cfg).
func NewMicroConvNet(cfg MicroConfig) *nn.Network {
	return MicroConvNetSpec(cfg).Build(rng.New(cfg.Seed))
}

// NewMLP builds MLPSpec(cfg).
func NewMLP(cfg MicroConfig) *nn.Network { return MLPSpec(cfg).Build(rng.New(cfg.Seed)) }
