package nn

import (
	"fmt"
	"math"

	"repro/internal/kernel"
	"repro/internal/par"
	"repro/internal/tensor"
)

// LRN is AlexNet's local response normalization across channels:
//
//	y_c = x_c · d_c^{-β},  d_c = k + (α/n)·Σ_{c' ∈ window(c)} x_{c'}²
//
// where the window spans n adjacent channels centred on c. The paper keeps
// LRN for batch sizes up to 8K and replaces it with BatchNorm for 32K
// (Table 7/8 note); this implementation exists so both model variants can be
// built and compared.
type LRN struct {
	name  string
	N     int     // window size (channels), default 5
	Alpha float32 // default 1e-4
	Beta  float32 // default 0.75
	K     float32 // default 2 (Krizhevsky's constant)

	// cached by a training Forward for Backward: its input and the d values
	x       *tensor.Tensor
	scale   tensor.Tensor
	inShape []int
	acts    acts
}

// NewLRN returns an LRN layer with AlexNet's published constants.
func NewLRN(name string) *LRN {
	return &LRN{name: name, N: 5, Alpha: 1e-4, Beta: 0.75, K: 2}
}

// Name implements Layer.
func (l *LRN) Name() string { return l.name }

// Params implements Layer.
func (l *LRN) Params() []*Param { return nil }

// Forward implements Layer.
func (l *LRN) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("nn: %s: want NCHW input, got %v", l.name, x.Shape))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	var scale []float32
	if train {
		l.x = x
		l.inShape = append(l.inShape[:0], x.Shape...)
		scale = shaped(&l.scale, x.Shape...).Data
	}
	y := l.acts.out(train, x.Shape...)
	area := h * w
	half := l.N / 2
	coeff := l.Alpha / float32(l.N)

	par.ForGrain(n, 1, func(lo, hi int) {
		// Each window reduces through the fixed-tree kernel sum instead of
		// a sliding add/subtract: the windows are tiny (N channels), and a
		// fresh fixed-shape sum per window keeps every d value a pure
		// function of its window — no accumulated drift across channels,
		// and the same reduction discipline as the rest of the train path.
		win := make([]float32, 2*half+1) // a window spans up to 2·⌊N/2⌋+1 channels (N+1 when N is even)
		for s := lo; s < hi; s++ {
			base := s * c * area
			for pos := 0; pos < area; pos++ {
				for ch := 0; ch < c; ch++ {
					m := 0
					for cc := max(0, ch-half); cc < min(ch+half+1, c); cc++ {
						v := x.Data[base+cc*area+pos]
						win[m] = v * v
						m++
					}
					d := l.K + float32(coeff*kernel.PairwiseSum(win[:m]))
					if scale != nil {
						scale[base+ch*area+pos] = d
					}
					y.Data[base+ch*area+pos] = x.Data[base+ch*area+pos] * float32(math.Pow(float64(d), -float64(l.Beta)))
				}
			}
		}
	})
	return y
}

// Backward implements Layer. With d_c cached from the forward pass,
//
//	dx_j = dy_j·d_j^{-β} − (2αβ/n)·x_j·Σ_{c: j∈window(c)} dy_c·x_c·d_c^{-β-1}
func (l *LRN) Backward(dout *tensor.Tensor) *tensor.Tensor {
	n, c := l.inShape[0], l.inShape[1]
	area := l.inShape[2] * l.inShape[3]
	dx := l.acts.dx(l.inShape...)
	half := l.N / 2
	factor := 2 * l.Alpha * l.Beta / float32(l.N)

	par.ForGrain(n, 1, func(lo, hi int) {
		// t_c = dy_c · x_c · d_c^{-β-1}, then each window sums through the
		// fixed-tree kernel (t is contiguous, so the window is one slice).
		t := make([]float32, c)
		for s := lo; s < hi; s++ {
			base := s * c * area
			for pos := 0; pos < area; pos++ {
				for ch := 0; ch < c; ch++ {
					i := base + ch*area + pos
					d := float64(l.scale.Data[i])
					t[ch] = dout.Data[i] * l.x.Data[i] * float32(math.Pow(d, -float64(l.Beta)-1))
				}
				for j := 0; j < c; j++ {
					i := base + j*area + pos
					d := float64(l.scale.Data[i])
					window := kernel.PairwiseSum(t[max(0, j-half):min(j+half+1, c)])
					dx.Data[i] = float32(dout.Data[i]*float32(math.Pow(d, -float64(l.Beta)))) - float32(factor*l.x.Data[i]*window)
				}
			}
		}
	})
	return dx
}
