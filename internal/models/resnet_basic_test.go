package models

import (
	"testing"

	"repro/internal/rng"
)

func TestResNet18SpecCanonical(t *testing.T) {
	spec := must(resNet18().build())
	// torchvision resnet18: 11,689,512 parameters.
	if got := spec.ParamCount(); got != 11689512 {
		t.Errorf("ResNet-18 params = %d, want 11689512", got)
	}
	// ~1.8 GMACs on 224x224 → ~3.6 GFLOPs.
	flops := spec.FLOPsPerImage()
	if flops < 3.4e9 || flops > 3.9e9 {
		t.Errorf("ResNet-18 FLOPs = %d, want ~3.6e9", flops)
	}
}

func TestResNet34SpecCanonical(t *testing.T) {
	spec := must(resNet34().build())
	// torchvision resnet34: 21,797,672 parameters.
	if got := spec.ParamCount(); got != 21797672 {
		t.Errorf("ResNet-34 params = %d, want 21797672", got)
	}
	flops := spec.FLOPsPerImage()
	if flops < 7.0e9 || flops > 7.7e9 {
		t.Errorf("ResNet-34 FLOPs = %d, want ~7.3e9", flops)
	}
}

func TestResNetFamilyOrdering(t *testing.T) {
	p18 := must(resNet18().build()).ParamCount()
	p34 := must(resNet34().build()).ParamCount()
	p50 := ResNet50Spec().ParamCount()
	if !(p18 < p34 && p34 < p50) {
		t.Fatalf("family ordering broken: %d, %d, %d", p18, p34, p50)
	}
}

func TestResNet18TrainableMatchesSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates the full 11.7M-parameter network")
	}
	net := must(resNet18().build()).Build(rng.New(1))
	if got, want := int64(net.NumParams()), must(resNet18().build()).ParamCount(); got != want {
		t.Errorf("trainable ResNet-18 has %d params, spec says %d", got, want)
	}
}

func TestResNet34TrainableMatchesSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates the full 21.8M-parameter network")
	}
	net := must(resNet34().build()).Build(rng.New(1))
	if got, want := int64(net.NumParams()), must(resNet34().build()).ParamCount(); got != want {
		t.Errorf("trainable ResNet-34 has %d params, spec says %d", got, want)
	}
}
