package models

import (
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Every table entry builds the network its spec accounts for: as many
// parameters as ParamCount says, none of them empty, and a forward pass at
// the canonical input that yields one logit per class. The full-size entries
// allocate tens of millions of weights and are skipped under -short.
func TestTableEntriesBuildWhatTheyCount(t *testing.T) {
	specs, want := map[string]*ModelSpec{}, 5
	for _, name := range MicroNames() {
		spec, err := Micro(name, MicroConfig{Classes: 5, InH: 12, InW: 16, Width: 4})
		if err != nil {
			t.Fatalf("Micro(%q): %v", name, err)
		}
		specs[name] = spec
	}
	if !testing.Short() {
		want = 10
		for _, name := range FullSizeNames() {
			spec, err := FullSize(name)
			if err != nil {
				t.Fatalf("FullSize(%q): %v", name, err)
			}
			specs[name] = spec
		}
	}
	if len(specs) != want {
		t.Fatalf("table resolves %d names, want %d (the micro five, the full-size five)", len(specs), want)
	}
	for name, spec := range specs {
		net := spec.Build(rng.New(1))
		if got, want := int64(net.NumParams()), spec.ParamCount(); got != want {
			t.Errorf("%s: built %d parameters, spec counts %d", name, got, want)
		}
		for _, p := range net.Params() {
			if p.Numel() == 0 {
				t.Errorf("%s: parameter %s is empty", name, p.Name)
			}
		}
		const n = 1
		y := net.Forward(tensor.New(n, spec.InputC, spec.InputH, spec.InputW), false)
		if len(y.Shape) != 2 || y.Shape[0] != n || y.Shape[1] != spec.Classes {
			t.Errorf("%s: forward at %dx%d gives %v, want [%d %d]", name, spec.InputH, spec.InputW, y.Shape, n, spec.Classes)
		}
	}
}

// A recipe that cannot be built is an error from the table — the flags
// behind each row used to allocate the network anyway and die inside a
// worker goroutine at step 0 — and an unknown name lists the known ones.
func TestTableRefusesUnbuildableRecipes(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  MicroConfig
		want string
	}{
		{"micro-alexnet", MicroConfig{InH: 2}, "models: micro-alexnet-w8: pool pool2 output empty at input 2x2"},
		{"micro-alexnet-lrn", MicroConfig{InH: 3}, "pool pool2 output empty at input 3x3"},
		{"micro-alexnet", MicroConfig{InH: 16, InW: 1}, "pool pool1 output empty at input 16x1"},
		{"micro-resnet", MicroConfig{Width: 1}, "models: micro-resnet-w1: conv res2_1.conv1 has 0 output channels"},
		{"micro-convnet", MicroConfig{Width: -2}, "conv conv1 has -2 output channels"},
		{"mlp", MicroConfig{Classes: -1}, "fc fc3 has -1 output channels"},
		{"mlp", MicroConfig{InH: -4}, "input 3x-4x-4 must be positive"},
		{"micro-convnet", MicroConfig{InC: -3}, "input -3x16x16 must be positive"},
		{"resnet50", MicroConfig{}, `unknown model "resnet50" (want micro-alexnet | micro-alexnet-lrn | micro-convnet | micro-resnet | mlp)`},
	} {
		spec, err := Micro(tc.name, tc.cfg)
		if err == nil || spec != nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Micro(%q, %+v) = %v, %v; want an error containing %q", tc.name, tc.cfg, spec, err, tc.want)
		}
	}
	if _, err := FullSize("mlp"); err == nil || !strings.Contains(err.Error(), "want alexnet | alexnet-bn | resnet18 | resnet34 | resnet50") {
		t.Errorf("FullSize(mlp): got %v, want an error listing the full-size names", err)
	}
	// Replay refuses the same way at a resolution the canonical spec cannot
	// absorb, and At panics with that error.
	alex := MicroAlexNetSpec(MicroConfig{})
	if _, err := alex.Replay(3, 3); err == nil || !strings.Contains(err.Error(), "pool pool2 output empty at input 3x3") {
		t.Errorf("Replay(3,3): got %v", err)
	}
	defer func() {
		if r := recover(); r == nil {
			t.Error("At(3,3) did not panic")
		}
	}()
	alex.At(3, 3)
}
