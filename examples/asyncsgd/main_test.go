package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/stdout.golden from the current output")

// TestStdoutGolden pins the program's whole output: every accuracy and
// staleness in it comes from a seeded run, so a change to the async loop,
// the synchronous trainer or the optimizers that moves one of them moves a
// line here. The file is the stdout of the event-queue simulator this loop
// replaced; an intended change regenerates it with -update.
func TestStdoutGolden(t *testing.T) {
	const path = "testdata/stdout.golden"
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("golden has %d lines, run printed %d", len(wantLines), len(got))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("line %d differs from golden\n got: %s\nwant: %s", i+1, got[i], wantLines[i])
		}
	}
}
