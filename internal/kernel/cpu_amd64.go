//go:build amd64

package kernel

// useAVX2 selects the eight-lane AVX2 kernels over the Go loops the portable
// build runs. It is read from the CPU once, at package init, and nothing in
// the package writes it afterwards.
var useAVX2 = avx2Usable()

// cpuid and xgetbv are the two instructions the detector needs
// (cpu_amd64.s).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// avx2Usable reports whether YMM instructions can run: the CPU has AVX and
// AVX2, the OS has enabled XSAVE (OSXSAVE), and XCR0 says it saves the XMM
// and YMM register state across context switches.
func avx2Usable() bool {
	const osxsave, avx, avx2 = 1 << 27, 1 << 28, 1 << 5
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	if maxLeaf < 7 || ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}
