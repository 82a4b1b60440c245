package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// naiveGemm is the reference implementation against which the optimized
// kernel is validated.
func naiveGemm(transA, transB bool, alpha float32, a, b *Tensor, beta float32, c *Tensor) {
	get := func(t *Tensor, trans bool, i, j int) float32 {
		if trans {
			return t.Data[j*t.Shape[1]+i]
		}
		return t.Data[i*t.Shape[1]+j]
	}
	m, n := c.Shape[0], c.Shape[1]
	k := a.Shape[1]
	if transA {
		k = a.Shape[0]
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for l := 0; l < k; l++ {
				s += get(a, transA, i, l) * get(b, transB, l, j)
			}
			c.Data[i*n+j] = beta*c.Data[i*n+j] + alpha*s
		}
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := New(2, 2)
	Gemm(false, false, 1, a, b, 0, c)
	want := []float32{58, 64, 139, 154}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("A·B = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := rng.New(1)
	a := RandNormal(r, 1, 5, 5)
	eye := New(5, 5)
	for i := 0; i < 5; i++ {
		eye.Set(1, i, i)
	}
	c := New(5, 5)
	Gemm(false, false, 1, a, eye, 0, c)
	for i := range a.Data {
		if !almostEq(float64(c.Data[i]), float64(a.Data[i]), 1e-6) {
			t.Fatalf("A·I != A at %d: %v vs %v", i, c.Data[i], a.Data[i])
		}
	}
}

func TestGemmAllTransposeVariants(t *testing.T) {
	r := rng.New(7)
	const m, k, n = 9, 11, 6
	for _, tc := range []struct{ ta, tb bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		ash := []int{m, k}
		if tc.ta {
			ash = []int{k, m}
		}
		bsh := []int{k, n}
		if tc.tb {
			bsh = []int{n, k}
		}
		a := RandNormal(r, 1, ash...)
		b := RandNormal(r, 1, bsh...)
		c1 := RandNormal(r, 1, m, n)
		c2 := c1.Clone()
		Gemm(tc.ta, tc.tb, 0.7, a, b, 0.3, c1)
		naiveGemm(tc.ta, tc.tb, 0.7, a, b, 0.3, c2)
		for i := range c1.Data {
			if !almostEq(float64(c1.Data[i]), float64(c2.Data[i]), 1e-4) {
				t.Fatalf("transA=%v transB=%v: mismatch at %d: %v vs %v", tc.ta, tc.tb, i, c1.Data[i], c2.Data[i])
			}
		}
	}
}

func TestGemmBetaZeroOverwritesGarbage(t *testing.T) {
	// beta=0 must overwrite pre-existing NaN, not multiply it.
	a := Ones(2, 2)
	b := Ones(2, 2)
	c := Full(float32(math.NaN()), 2, 2)
	Gemm(false, false, 1, a, b, 0, c)
	for i, v := range c.Data {
		if v != 2 {
			t.Fatalf("C[%d] = %v, want 2", i, v)
		}
	}
}

func TestGemmShapeMismatchPanics(t *testing.T) {
	defer expectPanic(t, "Gemm shape mismatch")
	Gemm(false, false, 1, New(2, 3), New(4, 2), 0, New(2, 2))
}

// Property: Gemm agrees with the naive triple loop on random shapes.
func TestGemmMatchesNaiveProperty(t *testing.T) {
	f := func(seed uint64, mm, kk, nn uint8) bool {
		m, k, n := int(mm%12)+1, int(kk%12)+1, int(nn%12)+1
		r := rng.New(seed)
		a := RandNormal(r, 1, m, k)
		b := RandNormal(r, 1, k, n)
		c1 := New(m, n)
		c2 := New(m, n)
		Gemm(false, false, 1, a, b, 0, c1)
		naiveGemm(false, false, 1, a, b, 0, c2)
		for i := range c1.Data {
			if !almostEq(float64(c1.Data[i]), float64(c2.Data[i]), 1e-4) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ, the right side computed by the doubly-transposed
// case on the untransposed arrays.
func TestMatMulTransposeIdentityProperty(t *testing.T) {
	f := func(seed uint64, mm, kk, nn uint8) bool {
		m, k, n := int(mm%8)+1, int(kk%8)+1, int(nn%8)+1
		r := rng.New(seed)
		a := RandNormal(r, 1, m, k)
		b := RandNormal(r, 1, k, n)
		ab, btat := New(m, n), New(n, m)
		Gemm(false, false, 1, a, b, 0, ab)
		Gemm(true, true, 1, b, a, 0, btat)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if !almostEq(float64(ab.At(i, j)), float64(btat.At(j, i)), 1e-4) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGemm128(b *testing.B) {
	r := rng.New(1)
	x := RandNormal(r, 1, 128, 128)
	y := RandNormal(r, 1, 128, 128)
	c := New(128, 128)
	b.SetBytes(2 * 128 * 128 * 128 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(false, false, 1, x, y, 0, c)
	}
}
