package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/tensor"
)

// TestStdoutGolden pins the command's whole report against what the parent
// commit's binary printed: a -schedule-only uniform trace (stats table and
// the closed-form line) and one run through a two-replica f32 pool of real
// micro-AlexNet forwards (the predicted-class histogram too, so a kernel
// change that moved a logit's bits far enough to flip a prediction fails
// here).
func TestStdoutGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   string
	}{
		{"schedule-only", "-schedule-only -trace uniform -rate 10000 -requests 5000 -max-batch 5 -max-delay 1000 -replicas 1"},
		{"pool-f32", "-precision f32 -requests 200 -replicas 2"},
	} {
		var out bytes.Buffer
		if err := run(strings.Fields(tc.args), &out); err != nil {
			t.Errorf("serve %s: %v", tc.args, err)
			continue
		}
		want, err := os.ReadFile("testdata/" + tc.golden + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		if out.String() != string(want) {
			t.Errorf("serve %s differs from testdata/%s.golden:\n%s", tc.args, tc.golden, out.String())
		}
	}
}

// TestRefusedFlags: a flag value the command cannot use is one error line
// returned before any report is written, without the "serve:" prefix main
// adds — -precision used to print the trace header first and die inside
// runPool, -requests -1 panicked in makeslice, and the others ran:
// -replicas 0 on the one replica the pool defaults to, a negative or NaN
// -rate at one request per tick, a bursty trace with -burst-len 0 as
// bursts of one. The window, queue and service flags, and -classes and
// -image-size on a pool run, used to print the trace and window header and
// then fail inside the serve or data package (the window ones as "serve:
// serve: MaxBatch 0, want >= 1"). A model the pool cannot build (an unknown
// name, an image too small for its pools, a width that leaves a conv with
// no channels) and a checkpoint that cannot be read used to fail after the
// header too.
func TestRefusedFlags(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string
	}{
		{"-trace zipf", `unknown trace "zipf" (want uniform | poisson | bursty)`},
		{"-precision f8", `unknown precision "f8"`},
		{"-schedule-only -precision f8", `unknown precision "f8"`},
		{"-requests -1", "-requests -1, want >= 0"},
		{"-replicas 0", "-replicas 0, want >= 1"},
		{"-rate -5", "-rate -5, want a positive finite rate"},
		{"-rate NaN", "-rate NaN, want a positive finite rate"},
		{"-trace bursty -burst-len 0", "-burst-len 0, want >= 1"},
		{"-schedule-only -max-batch 0", "-max-batch 0, want >= 1"},
		{"-schedule-only -max-delay -1", "-max-delay -1, want >= 0"},
		{"-schedule-only -queue-cap -1", "-queue-cap -1, want >= 0"},
		{"-schedule-only -svc-base -1", "-svc-base -1, want >= 0"},
		{"-schedule-only -svc-per-image -1", "-svc-per-image -1, want >= 0"},
		{"-max-batch 0", "-max-batch 0, want >= 1"},
		{"-classes 0", "-classes 0, want >= 2 for a pool run"},
		{"-classes 1", "-classes 1, want >= 2 for a pool run"},
		{"-image-size 0", "-image-size 0, want >= 1 for a pool run"},
		{"-model alexnet", `unknown model "alexnet" (want micro-alexnet | `},
		{"-image-size 2", "pool pool2 output empty at input 2x2"},
		{"-model micro-resnet -width 1", "conv res2_1.conv1 has 0 output channels"},
		{"-checkpoint /nonexistent", "/nonexistent"},
		{"-replicas abc", `invalid value "abc" for flag -replicas`},
		{"-no-such-flag", "flag provided but not defined: -no-such-flag"},
	} {
		var out bytes.Buffer
		err := run(strings.Fields(tc.args), &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("serve %s: got %v, want an error containing %q", tc.args, err, tc.want)
			continue
		}
		if strings.Contains(err.Error(), "\n") || strings.Contains(err.Error(), "serve:") || out.Len() != 0 {
			t.Errorf("serve %s: want a one-line error without a prefix and no report, got %q and %q", tc.args, err, out.String())
		}
	}
}

// TestRunPoolRefusals: a model the pool cannot build or a dataset it cannot
// render is one error before any replica is allocated, and newServedPool
// writes nothing — -classes 0 used to print data.GenerateSynth's panic
// trace.
func TestRunPoolRefusals(t *testing.T) {
	cfg := serve.Config{MaxBatch: 4, MaxDelay: 100, Replicas: 1, Service: serve.ServiceModel{Base: 10, PerImage: 1}}
	for _, tc := range []struct {
		name                      string
		model                     string
		width, classes, imageSize int
		want                      string
	}{
		{"-classes 0", "micro-alexnet", 8, 0, 24, "SynthConfig.Classes = 0"},
		{"-classes 1", "micro-alexnet", 8, 1, 24, "SynthConfig.Classes = 1"},
		{"-image-size 0", "mlp", 8, 8, 0, "image 3x0x0"},
		{"-image-size 2", "micro-alexnet", 8, 8, 2, "pool pool2 output empty at input 2x2"},
		{"-model micro-resnet -width 1", "micro-resnet", 1, 8, 24, "conv res2_1.conv1 has 0 output channels"},
		{"-model alexnet", "alexnet", 8, 8, 24, `unknown model "alexnet" (want micro-alexnet | `},
	} {
		pool, err := newServedPool(cfg, tc.model, tc.width, tc.classes, tc.imageSize, tensor.F32, "")
		if err == nil || pool != nil || !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("serve %s: got %v, want a one-line error containing %q", tc.name, err, tc.want)
		}
	}
}
