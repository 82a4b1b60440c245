package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRefusedFlags: a flag value the command cannot use is one error naming
// it, returned before any exhibit is generated or any output written. An
// unknown -only used to exit 0 with only the generator comment, so a typo
// beside -o EXPERIMENTS.md overwrote the document with one line, and
// -epochs 0 trained core's default 10 epochs while Figures 4-6 printed no
// rows. Each case runs twice: with -o naming a file that does not exist
// (it must not be created) and one that does (it must not be touched).
func TestRefusedFlags(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string
	}{
		{"-only typo -markdown", `-only "typo", want all | analytic | simulated | measured`},
		{"-only mesured -markdown", `-only "mesured", want all | analytic | simulated | measured`},
		{"-only", "flag needs an argument: -only"},
		{"-epochs 0", "-epochs 0, want >= 1"},
		{"-epochs -3 -only measured", "-epochs -3, want >= 1"},
		{"-epochs abc", `invalid value "abc" for flag -epochs`},
		{"-seed -1", `invalid value "-1" for flag -seed`},
		{"-no-such-flag", "flag provided but not defined: -no-such-flag"},
	} {
		dir := t.TempDir()
		absent := filepath.Join(dir, "absent.md")
		present := filepath.Join(dir, "EXPERIMENTS.md")
		const committed = "### Figure 1\n\ncommitted\n"
		if err := os.WriteFile(present, []byte(committed), 0o644); err != nil {
			t.Fatal(err)
		}
		old := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
		if err := os.Chtimes(present, old, old); err != nil {
			t.Fatal(err)
		}
		for _, path := range []string{absent, present} {
			var out bytes.Buffer
			// -o goes first: a case whose last flag lacks its value
			// must stay that case.
			err := run(append([]string{"-o", path}, strings.Fields(tc.args)...), &out)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("experiments %s: got %v, want an error containing %q", tc.args, err, tc.want)
				continue
			}
			if strings.Contains(err.Error(), "\n") || out.Len() != 0 {
				t.Errorf("experiments %s: want a one-line error and no output, got %q and %q", tc.args, err, out.String())
			}
		}
		if _, err := os.Stat(absent); !os.IsNotExist(err) {
			t.Errorf("experiments %s: -o file was created (stat: %v)", tc.args, err)
		}
		got, err := os.ReadFile(present)
		if err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(present)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != committed || !info.ModTime().Equal(old) {
			t.Errorf("experiments %s: existing -o file was touched: %q, modified %v", tc.args, got, info.ModTime())
		}
	}
}

// TestOnlyWritesTheSubset: a valid subset reaches w (no -o) with its
// tables and without the commentary that closes full runs only.
func TestOnlyWritesTheSubset(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-only", "simulated", "-markdown"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<!-- Generated by cmd/experiments", "### Table 1", "### Figure 7"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-only simulated output lacks %q", want)
		}
	}
	if strings.Contains(out.String(), "### Table 2") {
		t.Error("-only simulated output carries an analytic table")
	}
}
