package tensor

import (
	"fmt"
	"math"

	"repro/internal/par"
)

// Add computes t += u elementwise.
func (t *Tensor) Add(u *Tensor) {
	checkSameLen("Add", t, u)
	a, b := t.Data, u.Data
	par.For(len(a), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a[i] += b[i]
		}
	})
}

// Sub computes t -= u elementwise.
func (t *Tensor) Sub(u *Tensor) {
	checkSameLen("Sub", t, u)
	a, b := t.Data, u.Data
	par.For(len(a), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a[i] -= b[i]
		}
	})
}

// Scale computes t *= s.
func (t *Tensor) Scale(s float32) {
	a := t.Data
	par.For(len(a), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a[i] *= s
		}
	})
}

// AddScalar computes t += s elementwise.
func (t *Tensor) AddScalar(s float32) {
	a := t.Data
	par.For(len(a), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a[i] += s
		}
	})
}

// Lerp sets t = t*beta + u*alpha, used for momentum-style blends.
func (t *Tensor) Lerp(beta, alpha float32, u *Tensor) {
	checkSameLen("Lerp", t, u)
	a, b := t.Data, u.Data
	par.For(len(a), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a[i] = float32(a[i]*beta) + float32(alpha*b[i])
		}
	})
}

// Apply replaces each element x with f(x). The function must be pure.
func (t *Tensor) Apply(f func(float32) float32) {
	a := t.Data
	par.For(len(a), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a[i] = f(a[i])
		}
	})
}

// Sum returns the sum of all elements, accumulated in float64 for stability.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// Dot returns the inner product <t, u> accumulated in float64.
func (t *Tensor) Dot(u *Tensor) float64 {
	checkSameLen("Dot", t, u)
	var s float64
	for i, v := range t.Data {
		s += float64(float64(v) * float64(u.Data[i]))
	}
	return s
}

// Norm2 returns the Euclidean (L2) norm of t. LARS is built on this: the
// per-layer trust ratio is ‖w‖ / (‖∇w‖ + λ‖w‖).
func (t *Tensor) Norm2() float64 {
	var s float64
	for _, v := range t.Data {
		f := float64(v)
		s += float64(f * f)
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute element value (0 for empty tensors).
func (t *Tensor) MaxAbs() float32 {
	var m float32
	for _, v := range t.Data {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// ArgMaxRows treats t as [rows, cols] and returns the argmax of each row.
// It is used to turn logits into class predictions.
func (t *Tensor) ArgMaxRows() []int {
	if t.Dims() != 2 {
		panic(fmt.Sprintf("tensor: ArgMaxRows on shape %v", t.Shape))
	}
	rows, cols := t.Shape[0], t.Shape[1]
	out := make([]int, rows)
	par.ForGrain(rows, 64, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			row := t.Data[r*cols : (r+1)*cols]
			best, bestV := 0, float32(math.Inf(-1))
			for c, v := range row {
				if v > bestV {
					best, bestV = c, v
				}
			}
			out[r] = best
		}
	})
	return out
}

func checkSameLen(op string, t, u *Tensor) {
	if len(t.Data) != len(u.Data) {
		panic(fmt.Sprintf("tensor: %s: size mismatch %v vs %v", op, t.Shape, u.Shape))
	}
}
