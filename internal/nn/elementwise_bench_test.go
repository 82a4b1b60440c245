package nn

import (
	"fmt"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// BenchmarkElementwise times the element-wise layers of the conv step —
// ReLU, MaxPool 2/2/0 and BatchNorm — one training Forward and Backward
// each, and MaxPool's and BatchNorm's eval Forward alone (the serve path),
// at the inputs of a micro AlexNet-BN shard of 32's two pools: [32, 8, 24, 24] (pool1) and
// [32, 16, 12, 12] (pool2, whose output rows are six wide). Each row also
// reports its time per element of the layer's output (ns/output).
func BenchmarkElementwise(b *testing.B) {
	for _, shape := range [][]int{{32, 8, 24, 24}, {32, 16, 12, 12}} {
		for _, lc := range []struct {
			name  string
			layer Layer
			train bool
		}{
			{"relu", NewReLU("relu"), true},
			{"maxpool-k2s2p0", NewMaxPool("pool", 2, 2, 0), true},
			{"maxpool-k2s2p0-eval", NewMaxPool("pool", 2, 2, 0), false},
			{"batchnorm", NewBatchNorm("bn", shape[1]), true},
			{"batchnorm-eval", NewBatchNorm("bn", shape[1]), false},
		} {
			b.Run(fmt.Sprintf("%s/%dx%dx%dx%d", lc.name, shape[0], shape[1], shape[2], shape[3]), func(b *testing.B) {
				r := rng.New(1)
				x := tensor.RandNormal(r, 1, shape...)
				y := lc.layer.Forward(x, false)
				outputs := len(y.Data)
				dy := tensor.RandNormal(r, 1, y.Shape...)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					lc.layer.Forward(x, lc.train)
					if lc.train {
						lc.layer.Backward(dy)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*outputs), "ns/output")
			})
		}
	}
}
