package kernel

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestAssemblyIsAVX2Only holds the package to one vector form per kernel:
// every function the amd64 assembly defines is an AVX2 kernel (its name
// ends in AVX2, and a Go loop is its twin), or one of the helpers that have
// no such twin: the CPU detector's cpuid and xgetbv, and addSums, the
// pairwise tree's join. A kernel with some other vector form (SSE, say)
// would run on amd64 CPUs without AVX2 in place of the Go loop that the
// portable build runs.
func TestAssemblyIsAVX2Only(t *testing.T) {
	files, err := filepath.Glob("*_amd64.s")
	if err != nil || len(files) == 0 {
		t.Fatalf("no amd64 assembly found (%v)", err)
	}
	text := regexp.MustCompile(`(?m)^TEXT\s+·(\w+)\(SB\)`)
	helpers := map[string]bool{"cpuid": true, "xgetbv": true, "addSums": true}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range text.FindAllStringSubmatch(string(src), -1) {
			if name := m[1]; !strings.HasSuffix(name, "AVX2") && !helpers[name] {
				t.Errorf("%s defines %s, which is neither an AVX2 kernel nor a helper", f, name)
			}
		}
	}
}
