package kernel

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// eachForm runs f once per vector form of the kernels the CPU can run,
// with that form selected: the form init chose ("avx2" or "sse"), then, when
// that was AVX2, the SSE form in its place. Kernel tests do not run in
// parallel, so the switch cannot leak into another test.
func eachForm(f func(form string)) {
	if !useAVX2 {
		f("sse")
		return
	}
	f("avx2")
	useAVX2 = false
	defer func() { useAVX2 = true }()
	f("sse")
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
