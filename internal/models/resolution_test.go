package models

import (
	"reflect"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// allSpecs enumerates every builder-produced spec in the package, so the
// replay contract is checked against the full model zoo including the
// branching ResNet shortcuts and grouped AlexNet convolutions.
func allSpecs() map[string]*ModelSpec {
	micro := MicroConfig{Classes: 6, InH: 16, Width: 8}
	return map[string]*ModelSpec{
		"alexnet":            AlexNetSpec(),
		"alexnet-bn":         AlexNetBNSpec(),
		"resnet-18":          must(resNet18().build()),
		"resnet-34":          must(resNet34().build()),
		"resnet-50":          ResNet50Spec(),
		"micro-alexnet":      MicroAlexNetSpec(micro),
		"micro-alexnet-lrn":  MicroAlexNetSpec(MicroConfig{Classes: 6, InH: 16, Width: 8, UseLRN: true}),
		"micro-convnet":      MicroConvNetSpec(MicroConfig{Classes: 6, InH: 12, Width: 8}),
		"micro-convnet-rect": MicroConvNetSpec(MicroConfig{Classes: 6, InH: 24, InW: 16, Width: 8}),
	}
}

// Replaying any spec at its canonical resolution must reproduce it exactly
// — layer for layer, field for field. This is what makes FLOPsPerImageAt a
// strict generalization of FLOPsPerImage rather than a second accounting.
func TestAtCanonicalEqualsOriginal(t *testing.T) {
	for name, spec := range allSpecs() {
		got := spec.At(spec.InputH, spec.InputW)
		if !reflect.DeepEqual(got, spec) {
			for i := range spec.Layers {
				if !reflect.DeepEqual(got.Layers[i], spec.Layers[i]) {
					t.Errorf("%s: layer %d diverges:\n  replay %+v\n  orig   %+v", name, i, got.Layers[i], spec.Layers[i])
				}
			}
			t.Fatalf("%s: At(canonical) != original", name)
		}
		if got, want := spec.FLOPsPerImageAt(spec.InputH, spec.InputW), spec.FLOPsPerImage(); got != want {
			t.Errorf("%s: FLOPsPerImageAt(canonical) = %d, want %d", name, got, want)
		}
	}
}

// Doubling H and W on the all-conv micro model scales every conv and gap
// layer's MACs by exactly 4x (geometry doubles cleanly through stride-1
// pad-1 and stride-2 pad-1 3x3 convs) while the GAP-headed fc is exactly
// unchanged — the per-layer expectation, not an approximation.
func TestFLOPsPerImageAtDoubling(t *testing.T) {
	spec := MicroConvNetSpec(MicroConfig{Classes: 6, InH: 12, Width: 8})
	base := spec.Layers
	doubled := spec.At(24, 24).Layers
	var want int64
	for i, l := range base {
		var macs int64
		switch l.Kind {
		case "conv", "gap":
			macs = 4 * l.MACs
		case "fc":
			macs = l.MACs
		case "relu":
			macs = 0
		default:
			t.Fatalf("unexpected layer kind %q in all-conv model", l.Kind)
		}
		if doubled[i].MACs != macs {
			t.Errorf("layer %s: MACs at 24x24 = %d, want exactly %d (canonical %d)", l.Name, doubled[i].MACs, macs, l.MACs)
		}
		want += macs
	}
	if got := spec.At(24, 24).MACsPerImage(); got != want {
		t.Errorf("At(24,24).MACsPerImage() = %d, want per-layer sum %d", got, want)
	}
	if got, want := spec.FLOPsPerImageAt(24, 24), 2*want; got != want {
		t.Errorf("FLOPsPerImageAt(24,24) = %d, want %d", got, want)
	}
	if got, want := spec.TrainFLOPsPerImageAt(24, 24), 6*want; got != want {
		t.Errorf("TrainFLOPsPerImageAt(24,24) = %d, want %d", got, want)
	}
}

// GAP-headed models keep |W| at every resolution; flatten→fc models do not.
// The simulator's progressive pricing depends on the former.
func TestParamCountAtInvariance(t *testing.T) {
	conv := MicroConvNetSpec(MicroConfig{Classes: 6, InH: 12, Width: 8})
	for _, hw := range [][2]int{{12, 12}, {24, 24}, {24, 16}, {48, 48}} {
		if got, want := conv.At(hw[0], hw[1]).ParamCount(), conv.ParamCount(); got != want {
			t.Errorf("micro-convnet ParamCount at %dx%d = %d, want invariant %d", hw[0], hw[1], got, want)
		}
	}
	r50 := ResNet50Spec()
	if got, want := r50.At(112, 112).ParamCount(), r50.ParamCount(); got != want {
		t.Errorf("resnet-50 ParamCount at 112x112 = %d, want invariant %d", got, want)
	}
	alex := MicroAlexNetSpec(MicroConfig{Classes: 6, InH: 16, Width: 8})
	if got, want := alex.At(32, 32).ParamCount(), alex.ParamCount(); got == want {
		t.Errorf("micro-alexnet ParamCount at 32x32 = %d should differ from canonical %d (flatten→fc head)", got, want)
	}
}

// ResNet-50 at 112x112 — the ENTR half-resolution phase — costs roughly a
// quarter of the canonical forward pass (stem padding keeps it from being
// exactly 4x).
func TestResNet50HalfResolution(t *testing.T) {
	spec := ResNet50Spec()
	ratio := float64(spec.FLOPsPerImage()) / float64(spec.FLOPsPerImageAt(112, 112))
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("224/112 FLOP ratio = %.2f, want ~4", ratio)
	}
}

// The trainable MicroConvNet matches its spec's parameter count and runs
// forward at multiple resolutions with the same weights — including a
// non-square one.
func TestMicroConvNetSpecMatchesTrainable(t *testing.T) {
	cfg := MicroConfig{Classes: 6, InH: 12, Width: 8, Seed: 3}
	net := NewMicroConvNet(cfg)
	spec := MicroConvNetSpec(cfg)
	if got, want := int64(net.NumParams()), spec.ParamCount(); got != want {
		t.Fatalf("trainable %d params vs spec %d", got, want)
	}
	r := rng.New(9)
	for _, hw := range [][2]int{{12, 12}, {24, 24}, {24, 16}} {
		x := tensor.RandNormal(r, 1, 2, 3, hw[0], hw[1])
		y := net.Forward(x, true)
		if y.Shape[0] != 2 || y.Shape[1] != 6 {
			t.Fatalf("%dx%d: output shape %v, want [2,6]", hw[0], hw[1], y.Shape)
		}
		if y.HasNaN() {
			t.Fatalf("%dx%d: forward produced NaN", hw[0], hw[1])
		}
	}
}
