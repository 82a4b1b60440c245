package main

import (
	"strings"
	"testing"

	"repro/internal/serve"
)

// TestRunPoolRefusals: a model the pool cannot build or a dataset it cannot
// render is one error before any replica is allocated — -classes 0 used to
// print data.GenerateSynth's panic trace.
func TestRunPoolRefusals(t *testing.T) {
	cfg := serve.Config{MaxBatch: 4, MaxDelay: 100, Replicas: 1, Service: serve.ServiceModel{Base: 10, PerImage: 1}}
	for _, tc := range []struct {
		name                      string
		model                     string
		width, classes, imageSize int
		precision                 string
		want                      string
	}{
		{"-classes 0", "micro-alexnet", 8, 0, 24, "f32", "SynthConfig.Classes = 0"},
		{"-classes 1", "micro-alexnet", 8, 1, 24, "f32", "SynthConfig.Classes = 1"},
		{"-image-size 0", "mlp", 8, 8, 0, "f32", "image 3x0x0"},
		{"-image-size 2", "micro-alexnet", 8, 8, 2, "f32", "pool pool2 output empty at input 2x2"},
		{"-model micro-resnet -width 1", "micro-resnet", 1, 8, 24, "f32", "conv res2_1.conv1 has 0 output channels"},
		{"-model alexnet", "alexnet", 8, 8, 24, "f32", `unknown model "alexnet" (want micro-alexnet | `},
		{"-precision f8", "mlp", 8, 8, 24, "f8", `unknown precision "f8"`},
	} {
		rep, err := runPool(cfg, serve.UniformTrace(8, 10, 8), tc.model, tc.width, tc.classes, tc.imageSize, tc.precision, "")
		if err == nil || rep != nil || !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("serve %s: got %v, want a one-line error containing %q", tc.name, err, tc.want)
		}
	}
}
