package opt

import (
	"fmt"
	"math"

	"repro/internal/nn"
)

// Loss-scaling constants. The scale is always an exact power of two so that
// scaling the loss and unscaling the gradients are bit-exact inverses for
// every finite value (multiplying by 2^k only shifts the exponent).
const (
	// DefaultLossScale is the initial scale when the caller passes 0. 2^16
	// comfortably lifts the small conv gradients of the micro models above
	// the binary16 subnormal drain (2^-24) without overflowing activations.
	DefaultLossScale = 65536.0
	// maxLossScale caps growth; beyond 2^24 scaled losses themselves start
	// flirting with binary16 infinity for ordinary loss magnitudes.
	maxLossScale = 1 << 24
	// minLossScale floors backoff so a pathological run degrades to
	// effectively-unscaled training instead of dividing gradients to zero.
	minLossScale = 1.0 / (1 << 24)
	// defaultGrowthEvery is how many consecutive overflow-free steps earn a
	// doubling of the scale.
	defaultGrowthEvery = 2000
)

// ScaleStats summarizes a LossScaler's life so far, for experiment records
// and step logs.
type ScaleStats struct {
	Scale     float64 // current loss scale (power of two)
	Overflows int     // steps skipped because a gradient hit Inf/NaN
	Growths   int     // times the scale doubled after a stable stretch
	Stable    int     // consecutive overflow-free steps since last change
}

// LossScaler implements dynamic loss scaling for mixed-precision training:
// the loss is multiplied by Scale() before backpropagation so small
// gradients survive binary16 storage, and Update afterwards either unscales
// the accumulated float32 gradients in place (dividing by the same power of
// two — bit-exact) or, if any gradient overflowed to Inf/NaN, zeros nothing,
// halves the scale, and tells the caller to skip the optimizer step.
//
// The grow-on-stable / halve-on-overflow policy is the standard dynamic
// recipe: after GrowthEvery consecutive good steps the scale doubles (up to
// a cap), so the scaler self-tunes to the largest safe scale without manual
// sweeps. The whole state is two numbers, exposed via State/SetState for
// checkpointing.
type LossScaler struct {
	scale       float64
	growthEvery int
	stats       ScaleStats
}

// CheckLossScale reports why scale cannot be a scaler's initial scale, or
// nil: a nonzero scale must lie in [2^-24, 2^24] (0 selects
// DefaultLossScale).
func CheckLossScale(scale float64) error {
	if scale != 0 && !(scale >= minLossScale && scale <= maxLossScale) {
		return fmt.Errorf("opt: loss scale %v outside [%v, %v]", scale, minLossScale, float64(maxLossScale))
	}
	return nil
}

// NewLossScaler builds a scaler with the given initial scale (0 selects
// DefaultLossScale) and growth interval (0 selects defaultGrowthEvery).
// The initial scale is rounded to the nearest power of two to preserve the
// exact-unscaling invariant. It panics with CheckLossScale's error.
func NewLossScaler(scale float64, growthEvery int) *LossScaler {
	if err := CheckLossScale(scale); err != nil {
		panic(err)
	}
	if scale == 0 {
		scale = DefaultLossScale
	}
	scale = math.Exp2(math.Round(math.Log2(scale)))
	if growthEvery <= 0 {
		growthEvery = defaultGrowthEvery
	}
	s := &LossScaler{scale: scale, growthEvery: growthEvery}
	s.stats.Scale = scale
	return s
}

// Scale returns the factor to multiply the loss (equivalently, the seed
// gradient dL/dy) by before Backward.
func (s *LossScaler) Scale() float32 { return float32(s.scale) }

// Update inspects the accumulated gradients of params after a backward pass
// run under Scale(). If every value is finite it divides the gradients by
// the scale in place (exact: the scale is a power of two), advances the
// growth counter, and returns true: the optimizer step may proceed. If any
// gradient is Inf or NaN it leaves gradients untouched, halves the scale,
// and returns false: the caller must skip the step (and, in a distributed
// setting, skip the weight broadcast — weights are unchanged).
func (s *LossScaler) Update(params []*nn.Param) bool {
	for _, p := range params {
		for _, g := range p.G.Data {
			// A non-finite float32 has all exponent bits set.
			if math.Float32bits(g)&0x7f800000 == 0x7f800000 {
				s.stats.Overflows++
				s.stats.Stable = 0
				if half := s.scale / 2; half >= minLossScale {
					s.scale = half
				}
				s.stats.Scale = s.scale
				return false
			}
		}
	}
	inv := float32(1 / s.scale)
	if inv != 1 {
		for _, p := range params {
			for i := range p.G.Data {
				p.G.Data[i] *= inv
			}
		}
	}
	s.stats.Stable++
	if s.stats.Stable >= s.growthEvery {
		if grown := s.scale * 2; grown <= maxLossScale {
			s.scale = grown
			s.stats.Growths++
		}
		s.stats.Stable = 0
		s.stats.Scale = s.scale
	}
	return true
}

// Stats returns a snapshot of the scaler's counters.
func (s *LossScaler) Stats() ScaleStats { return s.stats }

// State serializes the scaler for checkpointing. The layout is a fixed
// float32 vector so it rides the existing tensor-section checkpoint codec.
func (s *LossScaler) State() []float32 {
	return []float32{
		float32(math.Log2(s.scale)),
		float32(s.stats.Overflows),
		float32(s.stats.Growths),
		float32(s.stats.Stable),
	}
}

// SetState restores a State() snapshot.
func (s *LossScaler) SetState(v []float32) error {
	if len(v) != 4 {
		return fmt.Errorf("opt: loss-scale state has %d values, want 4", len(v))
	}
	s.scale = math.Exp2(float64(v[0]))
	if s.scale < minLossScale || s.scale > maxLossScale || math.IsNaN(s.scale) {
		return fmt.Errorf("opt: restored loss scale %v outside [%v, %v]", s.scale, minLossScale, float64(maxLossScale))
	}
	s.stats = ScaleStats{
		Scale:     s.scale,
		Overflows: int(v[1]),
		Growths:   int(v[2]),
		Stable:    int(v[3]),
	}
	return nil
}
