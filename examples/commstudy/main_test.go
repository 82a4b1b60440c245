package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/stdout.golden from the current output")

// TestStdoutGolden pins the program's whole output: every number in it is a
// seeded engine counter, a closed form or a price, with no clock anywhere,
// so an engine, closed-form or pricing refactor that moves one of them moves
// a line here. An intended change regenerates the file with -update.
func TestStdoutGolden(t *testing.T) {
	const path = "testdata/stdout.golden"
	var out bytes.Buffer
	run(&out)
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
