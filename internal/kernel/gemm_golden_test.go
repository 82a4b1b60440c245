package kernel

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/rng"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/gemm.golden from the current kernels")

// exactVec draws n operands using integer arithmetic only (rng's SplitMix64
// bits → a 24-bit integer scaled by a power of two, in [-4, 4)), so the inputs
// — and with IEEE binary32 mul/add, the outputs — do not depend on any libm
// routine and are the same on every GOARCH the CI runs.
func exactVec(r *rng.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = r.Float32()*8 - 4
	}
	return v
}

func packHalves(f []float32) []uint16 {
	h := make([]uint16, len(f))
	EncodeHalf(h, f)
	return h
}

// hashBits is the FNV-64a of c's IEEE bit patterns. Every NaN hashes as the
// one canonical quiet NaN: IEEE 754 leaves the sign and payload a NaN result
// inherits from two NaN operands to the implementation, and on x86 that is
// the instruction's operand order — a property of the compiler's register
// allocation, not of the kernel. Where a NaN appears is pinned; which NaN is
// not.
func hashBits(c []float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range c {
		u := math.Float32bits(v)
		if v != v {
			u = 0x7fc00000
		}
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// goldenGemm computes rows [lo, lo+m) of one product with the exported kernel
// of its transpose case and storage, slicing or offsetting A the way
// tensor.Gemm's row-range parallelism does. a and b hold the float32 operands
// (for f16, the widened halves: the transposed-A cases have no binary16
// kernel of their own and run GemmTN and GemmTT on those).
func goldenGemm(tcase string, f16 bool, m, n, k int, alpha float32, a []float32, ah []uint16, lda, off, lo int, b []float32, bh []uint16, beta float32, c []float32) {
	switch {
	case tcase == "NN" && f16:
		GemmNNHalf(m, n, k, alpha, ah[lo*k:(lo+m)*k], bh, beta, c)
	case tcase == "NN":
		GemmNN(m, n, k, alpha, a[lo*k:(lo+m)*k], b, beta, c)
	case tcase == "TN":
		GemmTN(m, n, k, alpha, a, lda, off+lo, b, beta, c)
	case tcase == "NT" && f16:
		GemmNTHalf(m, n, k, alpha, ah[lo*k:(lo+m)*k], bh, beta, c)
	case tcase == "NT":
		GemmNT(m, n, k, alpha, a[lo*k:(lo+m)*k], b, beta, c)
	default:
		GemmTT(m, n, k, alpha, a, lda, off+lo, b, k, beta, c)
	}
}

// gemmGoldenDump runs every transpose case on both storages over a grid of
// edge geometries and renders one line per (case, storage, shape, scalars,
// data, chunking): the FNV-64a of C's IEEE bit patterns.
//
// The grid: m%4 ≠ 0 (register-block remainders), k > gemmKC (more than one
// k-tile, odd against it), n ∈ {1, 3, 4, 67} (below, at and across the
// four-wide vector step), alpha and beta each in {0, 1, other}, a "special"
// data set whose zero A-rows meet Inf and NaN in B (the per-row zero skip)
// and whose C starts with a NaN (beta = 0 must overwrite it), and two
// caller-side row chunkings of the same product. The transposed-A cases read
// op(A) out of a wider array at a column offset, as tensor.Gemm's row-range
// parallelism does.
func gemmGoldenDump() string {
	const pad, off = 3, 1 // transposed A lives in a [k, m+pad] array at column off
	type scalars struct{ alpha, beta float32 }
	all := []scalars{{0, 0}, {0, 1}, {0, 0.3}, {1, 0}, {1, 1}, {1, 0.3}, {0.7, 0}, {0.7, 1}, {0.7, 0.3}}
	few := []scalars{{1, 0}, {0.7, 0.3}}
	var out strings.Builder
	for ci, tcase := range []string{"NN", "TN", "NT", "TT"} {
		transA := tcase[0] == 'T'
		for _, f16 := range []bool{false, true} {
			for si, shape := range [][3]int{{5, 1, 300}, {13, 3, 515}, {6, 4, 257}, {7, 67, 300}} {
				m, n, k := shape[0], shape[1], shape[2]
				lda := k
				if transA {
					lda = m + pad
				}
				for _, special := range []bool{false, true} {
					r := rng.New(uint64(ci)<<8 | uint64(si))
					a := exactVec(r, m*k)
					if transA {
						a = exactVec(r, k*lda)
					}
					b, c0 := exactVec(r, k*n), exactVec(r, m*n)
					if special {
						// op(A) rows 1 and m-1 are zero; B carries Inf and NaN.
						for l := 0; l < k; l++ {
							for _, i := range []int{1, m - 1} {
								if transA {
									a[l*lda+off+i] = 0
								} else {
									a[i*k+l] = 0
								}
							}
						}
						b[0] = float32(math.Inf(1))
						b[len(b)/2] = float32(math.Inf(-1))
						b[len(b)-1] = float32(math.NaN())
						c0[0] = float32(math.NaN())
					}
					var ah, bh []uint16
					if f16 {
						ah, bh = packHalves(a), packHalves(b)
						DecodeHalf(a, ah)
						DecodeHalf(b, bh)
					}
					sc := few
					if si == 1 {
						sc = all
					}
					for _, s := range sc {
						for _, bounds := range [][]int{{0, m}, {0, 1, 5, m}} {
							c := append([]float32(nil), c0...)
							for bi := 0; bi+1 < len(bounds); bi++ {
								lo, hi := bounds[bi], bounds[bi+1]
								goldenGemm(tcase, f16, hi-lo, n, k, s.alpha, a, ah, lda, off, lo, b, bh, s.beta, c[lo*n:hi*n])
							}
							storage, data := "f32", "normal"
							if f16 {
								storage = "f16"
							}
							if special {
								data = "special"
							}
							fmt.Fprintf(&out, "%s/%s m=%d n=%d k=%d alpha=%v beta=%v %s chunks=%v %016x\n",
								tcase, storage, m, n, k, s.alpha, s.beta, data, bounds, hashBits(c))
						}
					}
				}
			}
		}
	}
	return out.String()
}

// TestGemmGolden pins the bits of every GEMM kernel against the file
// generated before the f32 and f16 kernels were folded onto one body per
// transpose case: a refactor of the GEMM path must not move a bit, on the
// SSE build or the portable one. An intended numeric change regenerates the
// file with -update and reviews the diff.
func TestGemmGolden(t *testing.T) {
	const path = "testdata/gemm.golden"
	got := gemmGoldenDump()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden has %d lines, the kernels produced %d", len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d differs from golden\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
