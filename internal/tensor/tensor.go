// Package tensor implements dense float32 tensors and the numerical kernels
// (GEMM, im2col convolution lowering, reductions, elementwise arithmetic)
// that the neural-network layers in this repository are built on.
//
// Tensors are contiguous and row-major. The package deliberately keeps the
// representation transparent — Data is an exported []float32 — because the
// optimizer, the distributed gradient reduction and the benchmark harness all
// want zero-copy access to flat parameter and gradient buffers.
//
// Heavy kernels (matrix multiply, im2col) parallelize across goroutines via
// internal/par; everything is deterministic for a fixed GOMAXPROCS-independent
// result because parallel loops only split elementwise or per-row work whose
// results do not depend on execution order. A product that feeds an add is
// converted explicitly (float32(alpha*b[i])), so that no compiler fuses the
// pair into one multiply-add (arm64 would) and moves the bits other builds
// pin.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense, contiguous, row-major float32 array with a shape.
type Tensor struct {
	// Shape holds the extent of each dimension. A scalar has Shape []int{}.
	Shape []int
	// Data holds the elements in row-major order; len(Data) == Numel().
	Data []float32
}

// New allocates a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := numel(shape)
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data in a tensor with the given shape. The slice is used
// directly (not copied); it must have exactly numel(shape) elements.
func FromSlice(data []float32, shape ...int) *Tensor {
	if len(data) != numel(shape) {
		panic(fmt.Sprintf("tensor: FromSlice: %d elements for shape %v", len(data), shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Full returns a tensor with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// Ones returns a tensor of ones.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

func numel(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

// Numel returns the number of elements.
func (t *Tensor) Numel() int { return len(t.Data) }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.Shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.Shape) != len(u.Shape) {
		return false
	}
	for i, d := range t.Shape {
		if u.Shape[i] != d {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// CopyFrom copies u's data into t. Shapes must match in element count.
func (t *Tensor) CopyFrom(u *Tensor) {
	if len(t.Data) != len(u.Data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %d vs %d", len(t.Data), len(u.Data)))
	}
	copy(t.Data, u.Data)
}

// Reshape returns a view of t with a new shape (sharing Data). The new shape
// must have the same number of elements. A single -1 dimension is inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = append([]int(nil), shape...)
	infer := -1
	known := 1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: Reshape with more than one -1")
			}
			infer = i
		} else {
			known *= d
		}
	}
	if infer >= 0 {
		if known == 0 || len(t.Data)%known != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.Shape, shape))
		}
		shape[infer] = len(t.Data) / known
		known *= shape[infer]
	}
	if known != len(t.Data) {
		panic(fmt.Sprintf("tensor: Reshape %v -> %v changes element count", t.Shape, shape))
	}
	return &Tensor{Shape: shape, Data: t.Data}
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index %v for shape %v", idx, t.Shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// String renders small tensors fully and large ones as a summary.
func (t *Tensor) String() string {
	if t.Numel() <= 16 {
		var b strings.Builder
		fmt.Fprintf(&b, "Tensor%v%v", t.Shape, t.Data)
		return b.String()
	}
	return fmt.Sprintf("Tensor%v[%d elements, l2=%.4g]", t.Shape, t.Numel(), t.Norm2())
}

// HasNaN reports whether any element is NaN or infinite.
func (t *Tensor) HasNaN() bool {
	for _, v := range t.Data {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return true
		}
	}
	return false
}
