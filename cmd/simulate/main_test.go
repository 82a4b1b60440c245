package main

import (
	"bytes"
	"errors"
	"flag"
	"math"
	"os"
	"strings"
	"testing"
)

// TestStdoutGolden pins the command's whole report against what the binary
// printed before simulate became run(args, w): the default run (ResNet-50
// on 2048 KNLs) and the two-tier DGX-1 example of the package comment.
func TestStdoutGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   string
	}{
		{"default", ""},
		{"per-node", "-model resnet50 -batch 8192 -nodes 32 -machine p100 -per-node 8 -intra-network nvlink -intra-algo ring -network fdr -algo tree"},
	} {
		var out bytes.Buffer
		if err := run(strings.Fields(tc.args), &out); err != nil {
			t.Errorf("simulate %s: %v", tc.args, err)
			continue
		}
		want, err := os.ReadFile("testdata/" + tc.golden + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		if out.String() != string(want) {
			t.Errorf("simulate %s differs from testdata/%s.golden:\n%s", tc.args, tc.golden, out.String())
		}
	}
}

// TestRefusedFlags: a configuration the command cannot price is one error
// line returned before any report is written, without the "simulate:"
// prefix main adds. A malformed value is a flagError, which main turns into
// exit status 2 as the flag package's ExitOnError did, and -h is
// flag.ErrHelp (exit 0). -intra-network and -intra-algo used to be parsed
// only when the first cluster was built, so a bad one under -sweep failed
// after the table header.
func TestRefusedFlags(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string
	}{
		{"-machine zz", `unknown machine "zz"`},
		{"-network zz", `unknown network "zz"`},
		{"-algo zz", `unknown algorithm "zz"`},
		{"-model zz", `unknown model "zz"`},
		{"-nodes 0", "-nodes 0: want a positive device count"},
		{"-per-node 8 -intra-network zz", `unknown network "zz"`},
		{"-sweep -per-node 8 -intra-algo zz", `unknown algorithm "zz"`},
		{"-nodes abc", `invalid value "abc" for flag -nodes`},
		{"-no-such-flag", "flag provided but not defined: -no-such-flag"},
	} {
		var out bytes.Buffer
		err := run(strings.Fields(tc.args), &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("simulate %s: got %v, want an error containing %q", tc.args, err, tc.want)
			continue
		}
		if strings.Contains(err.Error(), "\n") || strings.Contains(err.Error(), "simulate:") || out.Len() != 0 {
			t.Errorf("simulate %s: want a one-line error without a prefix and no report, got %q and %q", tc.args, err, out.String())
		}
		if flagErr := strings.HasPrefix(tc.args, "-nodes abc") || strings.HasPrefix(tc.args, "-no-such"); errors.As(err, new(flagError)) != flagErr {
			t.Errorf("simulate %s: flagError is %v, want %v", tc.args, !flagErr, flagErr)
		}
	}
	if err := run([]string{"-h"}, new(bytes.Buffer)); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("simulate -h: got %v, want flag.ErrHelp", err)
	}
}

// TestSizesCheck: every flag value the cluster model would panic on, or
// would silently replace with a default, and every -sync-sweep or
// -autoscale list it cannot parse, is rejected up front with a message
// naming the flag; the documented "0 = default" values stay accepted.
func TestSizesCheck(t *testing.T) {
	ok := sizes{nodes: 2048, batch: 32768, epochs: 90, dataset: 1280000,
		scaleMin: 1, interval: 60, targetUtil: 0.8, usdHour: 3}
	if err := ok.check(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	lists := ok
	lists.syncSweep, lists.autoscale = "1,2,4,8", "0.3x4,1.5x4!1,1.5x4,0.3x8"
	if err := lists.check(); err != nil {
		t.Fatalf("the documented -sync-sweep and -autoscale examples rejected: %v", err)
	}
	zeros := ok
	zeros.overlapBuckets, zeros.scaleMin, zeros.targetUtil, zeros.usdHour = 0, 0, 0, 0
	if err := zeros.check(); err != nil {
		t.Fatalf("0 for -overlap-buckets, -scale-min, -target-util and -usd-hour rejected: %v", err)
	}
	evicting := ok
	evicting.nodes, evicting.evict = 4, "0.1, 0.2,0.3"
	if err := evicting.check(); err != nil {
		t.Fatalf("three evictions from four devices rejected: %v", err)
	}
	pod := ok
	pod.nodes, pod.perNode, pod.autoscale = 16, 8, "1.0x3"
	if err := pod.check(); err != nil {
		t.Fatalf("hierarchical autoscale within the fleet rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		edit func(*sizes)
		want string
	}{
		{"-batch 0", func(s *sizes) { s.batch = 0 }, "-batch"},
		{"-epochs 0", func(s *sizes) { s.epochs = 0 }, "-epochs"},
		{"-per-node 8 -nodes 16 -autoscale 1.0x3 -scale-max 24",
			func(s *sizes) { *s = pod; s.scaleMax = 24 }, "-scale-max"},
		{"-nodes 0", func(s *sizes) { s.nodes = 0 }, "-nodes"},
		{"-dataset -1", func(s *sizes) { s.dataset = -1 }, "-dataset"},
		{"-per-node 3", func(s *sizes) { s.perNode = 3 }, "-per-node"},
		{"-sweep -evict", func(s *sizes) { s.sweep, s.evict = true, "0.5" }, "-evict"},
		{"-nodes 4 -evict 0.1,0.2,0.3,0.4", func(s *sizes) { s.nodes, s.evict = 4, "0.1,0.2,0.3,0.4" }, "-evict loses 4"},
		{"-evict 0.5,abc", func(s *sizes) { s.evict = "0.5,abc" }, "-evict fraction"},
		{"-evict 1.5", func(s *sizes) { s.evict = "1.5" }, "-evict fraction"},
		{"-autoscale -interval 0", func(s *sizes) { s.autoscale, s.interval = "1.0x3", 0 }, "-interval"},
		{"-autoscale -interval NaN", func(s *sizes) { s.autoscale, s.interval = "1.0x3", math.NaN() }, "-interval"},
		{"-evict NaN", func(s *sizes) { s.evict = "NaN" }, "-evict fraction"},
		{"-overlap -overlap-buckets -1", func(s *sizes) { s.overlapBuckets = -1 }, "-overlap-buckets -1"},
		{"-cooldown -2", func(s *sizes) { s.cooldown = -2 }, "-cooldown -2"},
		{"-scale-min -1", func(s *sizes) { s.scaleMin = -1 }, "-scale-min -1"},
		{"-scale-max -1", func(s *sizes) { s.scaleMax = -1 }, "-scale-max -1"},
		{"-max-backlog -3", func(s *sizes) { s.maxBacklog = -3 }, "-max-backlog -3"},
		{"-usd-hour -1", func(s *sizes) { s.usdHour = -1 }, "-usd-hour -1"},
		{"-target-util -0.5", func(s *sizes) { s.targetUtil = -0.5 }, "-target-util -0.5"},
		{"-target-util NaN", func(s *sizes) { s.targetUtil = math.NaN() }, "-target-util NaN"},
		{"-sync-sweep 0", func(s *sizes) { s.syncSweep = "0" }, "-sync-sweep period"},
		{"-sync-sweep 1,two", func(s *sizes) { s.syncSweep = "1,two" }, "-sync-sweep period"},
		{"-autoscale 1x0", func(s *sizes) { s.autoscale = "1x0" }, "-autoscale segment"},
		{"-autoscale 1x2!-1", func(s *sizes) { s.autoscale = "1x2!-1" }, "-autoscale segment"},
		{"-autoscale NaNx2", func(s *sizes) { s.autoscale = "NaNx2" }, "-autoscale segment"},
	} {
		s := ok
		tc.edit(&s)
		err := s.check()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error naming %s", tc.name, err, tc.want)
		}
	}
}
