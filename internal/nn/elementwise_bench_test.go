package nn

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// BenchmarkElementwise times one training Forward and Backward of each
// element-wise layer of the conv step — ReLU, MaxPool 2/2/0 and BatchNorm —
// at [32, 8, 24, 24], the first conv block's activations of a micro
// AlexNet-BN shard at batch 32.
func BenchmarkElementwise(b *testing.B) {
	for _, lc := range []struct {
		name  string
		layer Layer
	}{
		{"relu", NewReLU("relu")},
		{"maxpool-k2s2p0", NewMaxPool("pool", 2, 2, 0)},
		{"batchnorm", NewBatchNorm("bn", 8)},
	} {
		b.Run(lc.name, func(b *testing.B) {
			r := rng.New(1)
			x := tensor.RandNormal(r, 1, 32, 8, 24, 24)
			dy := tensor.RandNormal(r, 1, lc.layer.Forward(x, false).Shape...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lc.layer.Forward(x, true)
				lc.layer.Backward(dy)
			}
		})
	}
}
