package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestNewZeroFilled(t *testing.T) {
	x := New(3, 4)
	if x.Numel() != 12 {
		t.Fatalf("Numel = %d, want 12", x.Numel())
	}
	for i, v := range x.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestFromSliceSharesData(t *testing.T) {
	d := []float32{1, 2, 3, 4}
	x := FromSlice(d, 2, 2)
	x.Data[0] = 42
	if d[0] != 42 {
		t.Fatal("FromSlice must not copy data")
	}
}

func TestFromSliceBadLenPanics(t *testing.T) {
	defer expectPanic(t, "FromSlice with wrong length")
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestReshapeInference(t *testing.T) {
	x := New(2, 3, 4)
	y := x.Reshape(6, -1)
	if y.Shape[0] != 6 || y.Shape[1] != 4 {
		t.Fatalf("Reshape(6,-1) gave %v", y.Shape)
	}
	y.Data[0] = 7
	if x.Data[0] != 7 {
		t.Fatal("Reshape must share data")
	}
}

func TestReshapeBadCountPanics(t *testing.T) {
	defer expectPanic(t, "Reshape changing element count")
	New(2, 3).Reshape(4, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3)
	x.Set(5, 1, 2)
	if got := x.At(1, 2); got != 5 {
		t.Fatalf("At(1,2) = %v, want 5", got)
	}
	if x.Data[1*3+2] != 5 {
		t.Fatal("Set wrote to wrong offset")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 4)
	b := FromSlice([]float32{10, 20, 30, 40}, 4)
	a.Add(b)
	want := []float32{11, 22, 33, 44}
	for i := range want {
		if a.Data[i] != want[i] {
			t.Fatalf("Add: got %v", a.Data)
		}
	}
	a.Sub(b)
	for i, v := range []float32{1, 2, 3, 4} {
		if a.Data[i] != v {
			t.Fatalf("Sub: got %v", a.Data)
		}
	}
	a.Scale(0.5)
	for i, v := range []float32{0.5, 1, 1.5, 2} {
		if a.Data[i] != v {
			t.Fatalf("Scale: got %v", a.Data)
		}
	}
}

func TestLerp(t *testing.T) {
	v := FromSlice([]float32{10, 20}, 2)
	g := FromSlice([]float32{1, 2}, 2)
	v.Lerp(0.9, 0.1, g) // v = 0.9 v + 0.1 g
	if !almostEq(float64(v.Data[0]), 9.1, 1e-6) || !almostEq(float64(v.Data[1]), 18.2, 1e-6) {
		t.Fatalf("Lerp: got %v", v.Data)
	}
}

func TestSumDotNorm(t *testing.T) {
	x := FromSlice([]float32{3, 4}, 2)
	if x.Sum() != 7 {
		t.Fatalf("Sum = %v", x.Sum())
	}
	if x.Dot(x) != 25 {
		t.Fatalf("Dot = %v", x.Dot(x))
	}
	if x.Norm2() != 5 {
		t.Fatalf("Norm2 = %v", x.Norm2())
	}
}

func TestArgMaxRows(t *testing.T) {
	x := FromSlice([]float32{1, 5, 2, 9, 0, 3}, 2, 3)
	got := x.ArgMaxRows()
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgMaxRows = %v", got)
	}
}

func TestHasNaN(t *testing.T) {
	x := New(3)
	if x.HasNaN() {
		t.Fatal("zero tensor has no NaN")
	}
	x.Data[1] = float32(math.NaN())
	if !x.HasNaN() {
		t.Fatal("NaN not detected")
	}
	x.Data[1] = float32(math.Inf(1))
	if !x.HasNaN() {
		t.Fatal("Inf not detected")
	}
}

func TestCloneIndependent(t *testing.T) {
	x := FromSlice([]float32{1, 2}, 2)
	y := x.Clone()
	y.Data[0] = 99
	if x.Data[0] != 1 {
		t.Fatal("Clone must deep-copy")
	}
}

// Property: Sum is linear — Sum(a)+Sum(b) == Sum(a+b).
func TestSumLinearityProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		m := int(n%32) + 1
		r := rng.New(seed)
		a := RandNormal(r, 1, m)
		b := RandNormal(r, 1, m)
		sa, sb := a.Sum(), b.Sum()
		a.Add(b)
		return almostEq(a.Sum(), sa+sb, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Norm2 is absolutely homogeneous — ‖s·x‖ == |s|·‖x‖.
func TestNormHomogeneityProperty(t *testing.T) {
	f := func(seed uint64, scale int8) bool {
		r := rng.New(seed)
		x := RandNormal(r, 1, 37)
		n0 := x.Norm2()
		s := float32(scale) / 16
		x.Scale(s)
		return almostEq(x.Norm2(), math.Abs(float64(s))*n0, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func expectPanic(t *testing.T, what string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("expected panic: %s", what)
	}
}
