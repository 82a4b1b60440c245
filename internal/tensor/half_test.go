package tensor

import (
	"math"
	"testing"

	"repro/internal/kernel"
	"repro/internal/rng"
)

// widened returns h as an exactly-widened float32 tensor.
func widened(h *Half) *Tensor {
	t := New(h.Shape...)
	kernel.DecodeHalf(t.Data, h.Data)
	return t
}

func randHalfT(r *rng.Rand, rows, cols int) (*Half, *Tensor) {
	t := New(rows, cols)
	for i := range t.Data {
		t.Data[i] = r.NormFloat32()
	}
	h := NewHalf(rows, cols)
	PackHalf(h, t)
	return h, widened(h)
}

func tensorBitsEqual(t *testing.T, label string, got, want *Tensor) {
	t.Helper()
	for i := range got.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: coord %d: %v vs %v", label, i, got.Data[i], want.Data[i])
		}
	}
}

// TestGemmHalfMatchesWidenedGemm: every transpose case of the half dispatch
// is bit-identical to the float32 Gemm over the widened operands, including
// under the par row decomposition.
func TestGemmHalfMatchesWidenedGemm(t *testing.T) {
	r := rng.New(21)
	const m, n, k = 13, 9, 300
	for _, tc := range []struct {
		name           string
		transA, transB bool
		aShape, bShape [2]int
	}{
		{"NN", false, false, [2]int{m, k}, [2]int{k, n}},
		{"TN", true, false, [2]int{k, m}, [2]int{k, n}},
		{"NT", false, true, [2]int{m, k}, [2]int{n, k}},
		{"TT", true, true, [2]int{k, m}, [2]int{n, k}},
	} {
		ah, af := randHalfT(r, tc.aShape[0], tc.aShape[1])
		bh, bf := randHalfT(r, tc.bShape[0], tc.bShape[1])
		got := New(m, n)
		for i := range got.Data {
			got.Data[i] = r.NormFloat32()
		}
		want := got.Clone()
		GemmHalf(tc.transA, tc.transB, 0.8, ah, bh, 0.4, got)
		Gemm(tc.transA, tc.transB, 0.8, af, bf, 0.4, want)
		tensorBitsEqual(t, tc.name, got, want)
	}
}

// TestPackHalfReusesStorage: repacking a different shape into the same Half
// must not allocate when capacity suffices, and must track the new shape —
// the layers repack activation scratch every step.
func TestPackHalfReusesStorage(t *testing.T) {
	h := NewHalf(4, 8)
	big := New(2, 16)
	for i := range big.Data {
		big.Data[i] = float32(i)
	}
	PackHalf(h, big)
	if h.Shape[0] != 2 || h.Shape[1] != 16 {
		t.Fatalf("shape not updated: %v", h.Shape)
	}
	small := New(3, 2)
	small.Fill(1.5)
	PackHalf(h, small)
	if h.Numel() != 6 {
		t.Fatalf("numel after shrink: %d", h.Numel())
	}
	f := widened(h)
	for i, v := range f.Data {
		if v != 1.5 {
			t.Fatalf("coord %d: %v after repack", i, v)
		}
	}
}

// TestPackHalfRounds: packing applies exactly one round-to-nearest-even per
// element (the only lossy step of the F16 path).
func TestPackHalfRounds(t *testing.T) {
	src := FromSlice([]float32{1, 1.0009765625, 1.0006, 65504, 1e-7, -2.5}, 6)
	h := NewHalf(6)
	PackHalf(h, src)
	f := widened(h)
	// 1e-7 lands between half subnormals; nearest is 2·2^-24 ≈ 1.19e-7.
	want := []float32{1, 1.0009765625, 1.0009765625, 65504, 1.1920929e-07, -2.5}
	for i := range want {
		diff := math.Abs(float64(f.Data[i]-want[i]) / (1e-30 + math.Abs(float64(want[i]))))
		if diff > 1e-4 {
			t.Fatalf("coord %d: %v, want ≈%v", i, f.Data[i], want[i])
		}
	}
}

func TestParsePrecision(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Precision
		err  bool
	}{
		{"f32", F32, false}, {"", F32, false}, {"f16", F16, false},
		{"half", F16, false}, {"fp16", F16, false}, {"f64", F32, true},
	} {
		got, err := ParsePrecision(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Fatalf("ParsePrecision(%q) = %v, %v", tc.in, got, err)
		}
	}
	if F32.String() != "f32" || F16.String() != "f16" {
		t.Fatal("Precision.String mismatch")
	}
}
