package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"strings"
	"testing"
)

// TestStdoutGolden pins the command's whole output — the summary and each
// model's layer table — against the files its parent commit's binary wrote,
// before the tables were resolved through models.FullSize: residual-block
// stamps and the table lookup must not move a byte of them.
func TestStdoutGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"summary", nil},
		{"alexnet", []string{"-model", "alexnet"}},
		{"alexnet-bn", []string{"-model", "alexnet-bn"}},
		{"resnet18", []string{"-model", "resnet18"}},
		{"resnet34", []string{"-model", "resnet34"}},
		{"resnet50", []string{"-model", "resnet50"}},
	} {
		var out bytes.Buffer
		if err := run(tc.args, &out); err != nil {
			t.Errorf("spec %v: %v", tc.args, err)
			continue
		}
		want, err := os.ReadFile("testdata/" + tc.golden + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		if out.String() != string(want) {
			t.Errorf("spec %v differs from testdata/%s.golden:\n%s", tc.args, tc.golden, out.String())
		}
	}
}

// TestMalformedFlagIsAnError: a flag run cannot parse is its error, not an
// exit inside the flag package, and -h is flag.ErrHelp (main's exit 0).
func TestMalformedFlagIsAnError(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &out); err == nil || !strings.Contains(err.Error(), "-no-such-flag") || out.Len() != 0 {
		t.Errorf("spec -no-such-flag: got %v and %q, want an error naming the flag and no output", err, out.String())
	}
	if err := run([]string{"-h"}, &out); !errors.Is(err, flag.ErrHelp) || out.Len() != 0 {
		t.Errorf("spec -h: got %v and %q, want flag.ErrHelp and no output", err, out.String())
	}
}

func TestUnknownModelListsTheTable(t *testing.T) {
	err := run([]string{"-model", "micro-alexnet"}, new(bytes.Buffer))
	if err == nil || !strings.Contains(err.Error(), "alexnet | alexnet-bn | resnet18 | resnet34 | resnet50") {
		t.Errorf("got %v, want an error listing the full-size names", err)
	}
}
