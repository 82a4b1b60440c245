package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestRun drives the command on small documents written to a temporary
// directory: a matching document passes and prints one ok line; every
// refusal is run's error with nothing written; a drifted section is
// listed on w and returned as an error; a volatile section compares by
// shape, so its digits may change but its words may not.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	const table = "### Figure 1 — accuracy\n\n| B | acc |\n| 512 | 99.8 |\n"
	const volatile = "### HotLoop study — timings\n" + harness.VolatileMarker + "\n\n| GB/s | 8.21 |\n"
	committed := write("committed.md", "# Doc\n\n"+volatile+"\n"+table+"\nclosing prose\n")
	generated := write("generated.md", "<!-- Generated by cmd/experiments at noon -->\n"+table+"\n"+strings.Replace(volatile, "8.21", "7.5", 1))
	empty := write("empty.md", "no sections here\n")
	drifted := write("drifted.md", strings.Replace(table, "99.8", "99.9", 1))
	reworded := write("reworded.md", strings.Replace(volatile, "GB/s", "MB/s", 1))

	for _, tc := range []struct {
		name string
		args []string
		err  string // "" for success
		out  string // what w must hold
	}{
		{"match", []string{"-generated", generated, "-committed", committed, "-require", "Figure 1, HotLoop study"}, "", "ok: all 2 generated sections match " + committed + "\n"},
		{"no -generated", []string{"-committed", committed}, "-generated is required", ""},
		{"unreadable generated", []string{"-generated", filepath.Join(dir, "missing.md"), "-committed", committed}, "missing.md", ""},
		{"unreadable committed", []string{"-generated", generated, "-committed", filepath.Join(dir, "gone.md")}, "gone.md", ""},
		{"no sections", []string{"-generated", empty, "-committed", committed}, "contains no \"### \" sections", ""},
		{"missing required", []string{"-generated", generated, "-committed", committed, "-require", "Figure 1,Figure 10"}, "required sections missing from " + generated + ": Figure 10", ""},
		{"drifted", []string{"-generated", drifted, "-committed", committed}, "1 of 1 generated sections have drifted", "  - ### Figure 1 — accuracy\n"},
		{"volatile reworded", []string{"-generated", reworded, "-committed", committed}, "1 of 1 generated sections have drifted", "  - ### HotLoop study — timings (volatile: shape)\n"},
		{"bad flag", []string{"-bogus"}, "flag provided but not defined", ""},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.err)
		case !strings.Contains(out.String(), tc.out) || (tc.out == "" && out.Len() > 0):
			t.Errorf("%s: wrote %q, want %q", tc.name, out.String(), tc.out)
		}
	}
}

// TestHelp: -h is flag.ErrHelp, which main treats as success.
func TestHelp(t *testing.T) {
	if err := run([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h returned %v, want flag.ErrHelp", err)
	}
}
