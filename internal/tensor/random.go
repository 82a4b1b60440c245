package tensor

import (
	"math"

	"repro/internal/rng"
)

// FillNormal fills t with N(mean, std²) variates drawn from r.
func (t *Tensor) FillNormal(r *rng.Rand, mean, std float32) {
	for i := range t.Data {
		t.Data[i] = mean + float32(std*r.NormFloat32())
	}
}

// FillUniform fills t with uniform variates in [lo, hi).
func (t *Tensor) FillUniform(r *rng.Rand, lo, hi float32) {
	span := hi - lo
	for i := range t.Data {
		t.Data[i] = lo + float32(span*r.Float32())
	}
}

// RandNormal returns a new tensor of the given shape filled with N(0, std²).
func RandNormal(r *rng.Rand, std float32, shape ...int) *Tensor {
	t := New(shape...)
	t.FillNormal(r, 0, std)
	return t
}

// HeStd returns the He/Kaiming initialization standard deviation
// sqrt(2/fanIn), appropriate for ReLU networks such as AlexNet and ResNet.
func HeStd(fanIn int) float32 {
	return float32(math.Sqrt(2 / float64(fanIn)))
}
