package kernel

import (
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/rng"
)

// eachForm runs f once per form of the kernels the CPU can run, with that
// form selected: "avx2" when init chose it, then "portable" with useAVX2
// cleared — the Go loops the portable build runs. Kernel tests do not run
// in parallel, so the switch cannot leak into another test.
func eachForm(f func(form string)) {
	if useAVX2 {
		f("avx2")
		useAVX2 = false
		defer func() { useAVX2 = true }()
	}
	f("portable")
}

// TestCPUFeatures: the CPUID+XGETBV detector agrees with the flags Linux
// reports in /proc/cpuinfo. Linux lists "avx2" only when the YMM state is
// enabled too, which is what avx2Usable checks; and it names the OS-enabled
// XSAVE "xsave", listing a separate "osxsave" flag only on some kernels.
func TestCPUFeatures(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("needs /proc/cpuinfo")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(info), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, fl := range strings.Fields(list) {
				flags[fl] = true
			}
			break
		}
	}
	if len(flags) == 0 {
		t.Skip("no flags line in /proc/cpuinfo")
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if got, want := ecx1&(1<<27) != 0, flags["osxsave"] || flags["xsave"]; got != want {
		t.Errorf("CPUID OSXSAVE = %v, /proc/cpuinfo xsave/osxsave = %v", got, want)
	}
	if got, want := avx2Usable(), flags["avx2"]; got != want {
		t.Errorf("avx2Usable() = %v, /proc/cpuinfo avx2 = %v", got, want)
	}
}

// TestPortableFormsWithoutAVX2: with useAVX2 cleared, no kernel that has an
// AVX2 form writes through assembly. roundHalfVec, canonicalVec on both
// wires, momentumVec, reluVec, reluBackwardVec, normalizeVec (with and
// without x̂) and normalizeGradVec return 0 and leave their operands alone,
// maxPoolVec reports that it pooled nothing and writes no output or
// argmax, gemmTile covers no column, and a one-leaf pairwiseDotTile gives
// its Go loop's bits: baseDot per row and column.
func TestPortableFormsWithoutAVX2(t *testing.T) {
	saved := useAVX2
	useAVX2 = false
	defer func() { useAVX2 = saved }()

	const n = 23
	x := make([]float32, n)
	for i := range x {
		x[i] = 0.1 * float32(i+1) // mostly not binary16 values, so a rounding shows
	}
	keep := append([]float32(nil), x...)
	if got := roundHalfVec(x); got != 0 || bitsEqual(x, keep) >= 0 {
		t.Errorf("roundHalfVec wrote %d elements, want 0 and x unchanged", got)
	}
	for _, half := range []bool{false, true} {
		for _, scales := range [][]float64{nil, {1, 0.5}} {
			dst := make([]float32, n)
			if got := canonicalVec(dst, [][]float32{x, keep}, scales, half); got != 0 || bitsEqual(dst, make([]float32, n)) >= 0 {
				t.Errorf("canonicalVec(half %v, scales %v) wrote %d coordinates, want 0 and dst unchanged", half, scales, got)
			}
		}
	}
	neg := make([]float32, n)
	for i := range neg {
		neg[i] = -x[i]
	}
	// Both rules would write +0 over a dst that holds keep.
	dst := append([]float32(nil), keep...)
	if got := reluVec(dst, neg); got != 0 || bitsEqual(dst, keep) >= 0 {
		t.Errorf("reluVec wrote %d elements, want 0 and dst unchanged", got)
	}
	if got := reluBackwardVec(dst, neg, x); got != 0 || bitsEqual(dst, keep) >= 0 {
		t.Errorf("reluBackwardVec wrote %d elements, want 0 and dx unchanged", got)
	}
	out, arg := append([]float32(nil), keep[:4]...), []int32{7, 7, 7, 7}
	if maxPoolVec(out, arg, neg[:16], 4, 8, 0) || bitsEqual(out, keep[:4]) >= 0 || [4]int32(arg) != [4]int32{7, 7, 7, 7} {
		t.Errorf("maxPoolVec pooled, want out and arg unchanged")
	}
	hat := append([]float32(nil), keep...)
	if got := normalizeVec(dst, hat, x, 0.5, 2, 3, 1); got != 0 || bitsEqual(dst, keep) >= 0 || bitsEqual(hat, keep) >= 0 {
		t.Errorf("normalizeVec wrote %d elements, want 0 and y, x̂ unchanged", got)
	}
	if got := normalizeVec(dst, nil, x, 0.5, 2, 3, 1); got != 0 || bitsEqual(dst, keep) >= 0 {
		t.Errorf("eval normalizeVec wrote %d elements, want 0 and y unchanged", got)
	}
	if got := normalizeGradVec(dst, x, neg, 3, 0.5, 2); got != 0 || bitsEqual(dst, keep) >= 0 {
		t.Errorf("normalizeGradVec wrote %d elements, want 0 and dx unchanged", got)
	}
	v, w := append([]float32(nil), x...), append([]float32(nil), x...)
	if got := momentumVec(v, w, x, 0.9, 0.1, 5e-4, true); got != 0 || bitsEqual(v, keep) >= 0 || bitsEqual(w, keep) >= 0 {
		t.Errorf("momentumVec updated %d elements, want 0 and v, w unchanged", got)
	}
	const cols = 32
	if got := gemmTile(make([]float32, 4*cols), []float32{1, 2, 3, 4}, make([]float32, cols), cols); got != 0 {
		t.Errorf("gemmTile covered %d columns, want 0", got)
	}

	const k, ldb = 37, 41
	rnd := rng.New(3)
	a0, a1, b := exactVec(rnd, k), exactVec(rnd, k), exactVec(rnd, 7*ldb+k)
	a1[5] = float32(math.Inf(1))
	b[2*ldb+9] = float32(math.Inf(-1)) // meets a1's Inf: one NaN column
	for _, rows := range []int{1, 2} {
		var s [16]float32
		pairwiseDotTile(&s, a0, a1, b, ldb, rows)
		for r, a := range [][]float32{a0, a1}[:rows] {
			for c := 0; c < 8; c++ {
				want := baseDot(a, b[c*ldb:c*ldb+k])
				if got := s[8*r+c]; math.Float32bits(got) != math.Float32bits(want) {
					t.Errorf("pairwiseDotTile rows=%d: s[%d] is %08x, baseDot %08x", rows, 8*r+c, math.Float32bits(got), math.Float32bits(want))
				}
			}
		}
	}
}
