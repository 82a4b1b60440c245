package models

import (
	"testing"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// TestAlexNetSpecTable6 validates the Table 6 row for AlexNet:
// ~61M parameters, ~1.5 GFLOPs/image, scaling ratio ~24.6.
func TestAlexNetSpecTable6(t *testing.T) {
	spec := AlexNetSpec()
	if got := spec.ParamCount(); got != 60965224 {
		t.Errorf("AlexNet params = %d, want 60965224 (the canonical grouped AlexNet)", got)
	}
	flops := spec.FLOPsPerImage()
	if flops < 1.40e9 || flops > 1.55e9 {
		t.Errorf("AlexNet FLOPs/image = %d, want ~1.5e9 (Table 6)", flops)
	}
	ratio := spec.ScalingRatio()
	if ratio < 22 || ratio < 0 || ratio > 27 {
		t.Errorf("AlexNet scaling ratio = %.2f, want ~24.6 (Table 6)", ratio)
	}
}

// TestResNet50SpecTable6 validates the Table 6 row for ResNet-50:
// ~25M parameters, ~7.7 GFLOPs/image, scaling ratio ~308.
func TestResNet50SpecTable6(t *testing.T) {
	spec := ResNet50Spec()
	if got := spec.ParamCount(); got != 25557032 {
		t.Errorf("ResNet-50 params = %d, want 25557032 (canonical)", got)
	}
	flops := spec.FLOPsPerImage()
	if flops < 7.4e9 || flops > 8.1e9 {
		t.Errorf("ResNet-50 FLOPs/image = %d, want ~7.7e9 (Table 6)", flops)
	}
	ratio := spec.ScalingRatio()
	if ratio < 290 || ratio > 320 {
		t.Errorf("ResNet-50 scaling ratio = %.1f, want ~308 (Table 6)", ratio)
	}
}

// TestScalingRatioComparison checks the paper's qualitative claim that
// ResNet-50's computation/communication ratio is ~12.5x AlexNet's, which is
// why ResNet-50 weak-scales so much better.
func TestScalingRatioComparison(t *testing.T) {
	a, r := AlexNetSpec(), ResNet50Spec()
	rel := r.ScalingRatio() / a.ScalingRatio()
	if rel < 11 || rel > 14 {
		t.Errorf("ResNet50/AlexNet ratio = %.2f, want ~12.5 (Table 6)", rel)
	}
}

func TestAlexNetBNSpec(t *testing.T) {
	bn := AlexNetBNSpec()
	plain := AlexNetSpec()
	// Removing the tower grouping roughly doubles several conv layers, so
	// AlexNet-BN is a bit heavier than the original.
	if bn.ParamCount() <= plain.ParamCount() {
		t.Errorf("AlexNet-BN params %d should exceed grouped AlexNet %d", bn.ParamCount(), plain.ParamCount())
	}
	if bn.ParamCount() < 62e6 || bn.ParamCount() > 63e6 {
		t.Errorf("AlexNet-BN params = %d, want ~62.4M", bn.ParamCount())
	}
	hasBN, hasLRN := false, false
	for _, l := range bn.Layers {
		switch l.Kind {
		case "bn":
			hasBN = true
		case "lrn":
			hasLRN = true
		}
	}
	if !hasBN || hasLRN {
		t.Error("AlexNet-BN must use batch norm and no LRN")
	}
}

func TestTrainingFLOPsMatchPaperClaim(t *testing.T) {
	// The paper: "If we run 90 epochs for ImageNet dataset, the number of
	// operations is 90 * 1.28 Million * 7.72 Billion (~1e18)".
	spec := ResNet50Spec()
	total := float64(spec.TrainFLOPsPerImage()) * 90 * 1.28e6 / 3
	// (The paper's 1e18 counts forward passes; with the conventional 3x
	// train multiplier it is ~3e18. Check the forward-only figure.)
	if total < 0.8e18 || total > 1.2e18 {
		t.Errorf("90-epoch forward FLOPs = %.3g, want ~1e18", total)
	}
}

func TestResNet50TrainableMatchesSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates the full 25.6M-parameter network")
	}
	r := rng.New(1)
	net := ResNet50Spec().Build(r)
	want := ResNet50Spec().ParamCount()
	if got := int64(net.NumParams()); got != want {
		t.Errorf("trainable ResNet-50 has %d params, spec says %d", got, want)
	}
}

func TestAlexNetTrainableMatchesSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates the full 61M-parameter network")
	}
	r := rng.New(1)
	net := AlexNetSpec().Build(r)
	want := AlexNetSpec().ParamCount()
	if got := int64(net.NumParams()); got != want {
		t.Errorf("trainable AlexNet has %d params, spec says %d (the canonical 60,965,224)", got, want)
	}
}

func TestAlexNetBNTrainableMatchesSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates the full 62M-parameter network")
	}
	r := rng.New(1)
	net := AlexNetBNSpec().Build(r)
	want := AlexNetBNSpec().ParamCount()
	if got := int64(net.NumParams()); got != want {
		t.Errorf("trainable AlexNet-BN has %d params, spec says %d", got, want)
	}
}

func TestMicroAlexNetForward(t *testing.T) {
	for _, useLRN := range []bool{false, true} {
		cfg := MicroConfig{Classes: 6, InH: 16, Width: 8, Seed: 3, UseLRN: useLRN}
		net := NewMicroAlexNet(cfg)
		r := rng.New(9)
		x := tensor.RandNormal(r, 1, 4, 3, 16, 16)
		y := net.Forward(x, true)
		if y.Shape[0] != 4 || y.Shape[1] != 6 {
			t.Fatalf("UseLRN=%v: output shape %v, want [4,6]", useLRN, y.Shape)
		}
		if y.HasNaN() {
			t.Fatalf("UseLRN=%v: forward produced NaN", useLRN)
		}
	}
}

func TestMicroAlexNetSpecMatchesTrainable(t *testing.T) {
	for _, useLRN := range []bool{false, true} {
		cfg := MicroConfig{Classes: 6, InH: 16, Width: 8, Seed: 3, UseLRN: useLRN}
		net := NewMicroAlexNet(cfg)
		spec := MicroAlexNetSpec(cfg)
		if got, want := int64(net.NumParams()), spec.ParamCount(); got != want {
			t.Errorf("UseLRN=%v: trainable %d params vs spec %d", useLRN, got, want)
		}
	}
}

func TestMicroResNetForwardBackward(t *testing.T) {
	cfg := MicroConfig{Classes: 5, InH: 16, Width: 8, Seed: 4}
	net := must(microResNet(cfg).build()).Build(rng.New(cfg.Seed))
	r := rng.New(10)
	x := tensor.RandNormal(r, 1, 2, 3, 16, 16)
	y := net.Forward(x, true)
	if y.Shape[0] != 2 || y.Shape[1] != 5 {
		t.Fatalf("output shape %v, want [2,5]", y.Shape)
	}
	var loss nn.SoftmaxCrossEntropy
	loss.Forward(y, []int{0, 1})
	net.ZeroGrad()
	net.Backward(loss.Backward())
	// All parameters should receive gradient.
	for _, p := range net.Params() {
		if p.G.Norm2() == 0 && p.Numel() > 0 {
			t.Errorf("parameter %s received no gradient", p.Name)
		}
	}
}

func TestMLPTrainsOnToyProblem(t *testing.T) {
	cfg := MicroConfig{Classes: 2, InC: 1, InH: 4, InW: 4, Width: 4, Seed: 5}
	net := NewMLP(cfg)
	r := rng.New(11)
	// Class 0: negative mean image; class 1: positive mean image.
	n := 32
	x := tensor.New(n, 1, 4, 4)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		sign := float32(-1)
		if i%2 == 1 {
			sign = 1
			labels[i] = 1
		}
		for j := 0; j < 16; j++ {
			x.Data[i*16+j] = sign + 0.3*r.NormFloat32()
		}
	}
	var loss nn.SoftmaxCrossEntropy
	first := 0.0
	for step := 0; step < 60; step++ {
		y := net.Forward(x, true)
		l := loss.Forward(y, labels)
		if step == 0 {
			first = l
		}
		net.ZeroGrad()
		net.Backward(loss.Backward())
		for _, p := range net.Params() {
			for i, g := range p.G.Data {
				p.W.Data[i] += float32(-0.1 * g)
			}
		}
	}
	y := net.Forward(x, false)
	final := loss.Forward(y, labels)
	if final >= first/2 {
		t.Errorf("plain SGD failed to learn: loss %v -> %v", first, final)
	}
	if acc := nn.Accuracy(y, labels); acc < 0.95 {
		t.Errorf("toy accuracy %v, want >= 0.95", acc)
	}
}

func TestSpecStringRenders(t *testing.T) {
	s := AlexNetSpec().String()
	if len(s) == 0 {
		t.Fatal("empty spec string")
	}
}
