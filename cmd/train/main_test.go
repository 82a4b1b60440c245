package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

var wallField = regexp.MustCompile(`wall=\S+`)

// small is the run every golden shares: 256 training images, two epochs.
var small = []string{"-train-size", "256", "-epochs", "2"}

// TestStdoutGolden pins the command's whole report — header, per-epoch
// table, final line and the feature lines — for six configurations against
// what the parent commit's binary printed (only the wall= field, a clock
// reading, is normalised): the model table, the shared flag parsers and the
// move into run() must not change a run.
func TestStdoutGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"default", nil},
		{"per-node", []string{"-per-node", "2", "-workers", "4"}},
		{"overlap", []string{"-overlap", "-bucket", "64", "-codec", "fp16"}},
		{"sync-every", []string{"-sync-every", "2"}},
		{"resolutions", []string{"-model", "micro-convnet", "-resolutions", "12x12@0,24x24@1+"}},
		{"resnet-f16", []string{"-model", "micro-resnet", "-precision", "f16"}},
	} {
		var out bytes.Buffer
		if err := run(append(small[:len(small):len(small)], tc.args...), &out); err != nil {
			t.Errorf("train %v: %v", tc.args, err)
			continue
		}
		want, err := os.ReadFile("testdata/" + tc.golden + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		got := wallField.ReplaceAllString(out.String(), "wall=X")
		if got != wallField.ReplaceAllString(string(want), "wall=X") {
			t.Errorf("train %v differs from testdata/%s.golden:\n%s", tc.args, tc.golden, got)
		}
	}
}

// TestRefusedFlags: a flag value the run cannot use is one error naming it,
// returned before any network is allocated or goroutine started — each of
// these printed a goroutine trace, died inside a worker at step 0, or was
// silently accepted.
func TestRefusedFlags(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string
	}{
		{"-classes 0", "SynthConfig.Classes = 0"},
		{"-classes 1", "SynthConfig.Classes = 1"},
		{"-train-size 0", "SynthConfig.TrainSize = 0"},
		{"-image-size 0", "image 3x0x0"},
		{"-image-size 2", "models: micro-alexnet-w8: pool pool2 output empty at input 2x2"},
		{"-model micro-resnet -width 1", "models: micro-resnet-w1: conv res2_1.conv1 has 0 output channels"},
		{"-model resnet50", `unknown model "resnet50" (want micro-alexnet | micro-alexnet-lrn | micro-convnet | micro-resnet | mlp)`},
		{"-fault-dead 1@2xyz", `-fault-dead: dist: bad entry "1@2xyz"`},
		{"-fault-dead 1@-5", `-fault-dead: dist: bad entry "1@-5"`},
		{"-fault-dead 1@2,1@7", "-fault-dead: dist: worker 1 listed twice"},
		{"-elastic -fault-join 1@3,1@4", "-fault-join: dist: worker 1 listed twice"},
		{"-resolutions 12x12", "-resolutions needs a model whose weight count does not depend on the input size: micro-alexnet has"},
		{"-model mlp -resolutions 12x12@0,24x24@1+", "mlp has"},
		{"-resolutions 2x2", "pool pool2 output empty at input 2x2"},
		{"-method adam", `core: unknown method "adam" (want sgd | linear | lars)`},
		{"-reduction kahan", `dist: unknown reduction "kahan" (want canonical | pairwise)`},
		{"-algo star", `unknown algorithm "star"`},
		{"-codec zip", `dist: unknown codec "zip" (want "" | fp16 | 1bit)`},
		{"-per-node 2 -workers 4 -intra-algo star", `unknown algorithm "star"`},
		{"-loss-scale 8", "-loss-scale needs -precision f16"},
		{"-evict-after 2", "-evict-after needs -elastic"},
		// Left to core.Config.Validate, whose messages are as specific.
		{"-shards 1", "1 shards cannot feed 2 workers"},
		{"-sync-every -1", "SyncEvery = -1"},
		{"-bucket -5", "BucketElems = -5"},
		{"-intra-sync-every 2", "IntraSyncEvery needs Config.Topology"},
		{"-per-node 3 -workers 4", "hierarchy needs 3 workers, engine has 4 replicas"},
		{"-fault-dead 5@3", "FaultPlan.Dead marks worker 5"},
		{"-fault-dead 0@3", "cannot mark worker 0"},
		{"-fault-join 1@3", "FaultPlan.Join requires Config.Elastic"},
		{"-precision f16 -loss-scale -4", "opt: loss scale -4 outside"},
		{"-precision f16 -loss-scale 1e-30", "opt: loss scale 1e-30 outside"},
		{"-precision f16 -loss-scale 1e9", "opt: loss scale 1e+09 outside"},
		{"-fault-drop 1.5", "FaultPlan.DropRate = 1.5"},
		{"-fault-drop NaN", "FaultPlan.DropRate = NaN"},
		{"-fault-stall -1", "FaultPlan.StallRate = -1"},
		// core.Config reads these zeros as its own defaults (10 epochs,
		// batch 32, one worker), which the usage line does not show.
		{"-epochs 0", "-epochs 0, want >= 1"},
		{"-batch 0", "-batch 0, want >= 1"},
		{"-workers 0", "-workers 0, want >= 1"},
		{"-base-batch 0", "-base-batch 0, want >= 1"},
		{"-epochs -3", "-epochs -3, want >= 1"},
		{"-workers -2", "-workers -2, want >= 1"},
		// A malformed value is run's error, not an exit inside the flag
		// package.
		{"-workers abc", `invalid value "abc" for flag -workers`},
		{"-no-such-flag", "flag provided but not defined: -no-such-flag"},
	} {
		var out bytes.Buffer
		err := run(append(small[:len(small):len(small)], strings.Fields(tc.args)...), &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("train %s: got %v, want an error containing %q", tc.args, err, tc.want)
			continue
		}
		if strings.Contains(err.Error(), "\n") || out.Len() != 0 {
			t.Errorf("train %s: want a one-line error and no report, got %q and %q", tc.args, err, out.String())
		}
	}
}

// TestHeaderPrintsTheConfigThatRan: the header prints the batch and epoch
// budget the run trained with, above one row per epoch. (It once printed
// the flag values beside core.Config's defaults for -epochs 0 -batch 0;
// TestRefusedFlags now refuses those zeros.)
func TestHeaderPrintsTheConfigThatRan(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.Fields("-train-size 64 -image-size 8 -width 2 -epochs 3 -batch 16"), &out); err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(out.String(), "\n")
	if !strings.Contains(header, "batch=16 epochs=3 ") {
		t.Errorf("header %q, want batch=16 epochs=3", header)
	}
	if rows := strings.Count(out.String(), "\n") - 3; rows != 3 {
		t.Errorf("%d epoch rows under that header, want 3:\n%s", rows, out.String())
	}
}

// TestHelpIsNotAnError: -h prints the usage and returns flag.ErrHelp, which
// main turns into exit status 0.
func TestHelpIsNotAnError(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-h"}, &out); !errors.Is(err, flag.ErrHelp) || out.Len() != 0 {
		t.Errorf("train -h: got %v and %q, want flag.ErrHelp and no report", err, out.String())
	}
}
