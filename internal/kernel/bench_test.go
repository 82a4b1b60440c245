package kernel

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// BenchmarkResize times the progressive-resolution resampling kernels on
// the schedule transitions the studies actually run (24→12 shrink, 12→24
// grow) plus an ImageNet-like 224→112 plane (input bytes/sec).
func BenchmarkResize(b *testing.B) {
	shapes := []struct {
		name           string
		sh, sw, dh, dw int
	}{
		{"area", 24, 24, 12, 12},
		{"bilinear", 12, 12, 24, 24},
		{"area", 224, 224, 112, 112},
	}
	r := rng.New(42)
	for _, sh := range shapes {
		src := make([]float32, sh.sh*sh.sw)
		for i := range src {
			src[i] = r.NormFloat32()
		}
		dst := make([]float32, sh.dh*sh.dw)
		b.Run(fmt.Sprintf("%s/%dx%d-to-%dx%d", sh.name, sh.sh, sh.sw, sh.dh, sh.dw), func(b *testing.B) {
			b.SetBytes(4 * int64(sh.sh) * int64(sh.sw))
			for i := 0; i < b.N; i++ {
				ResizePlane(dst, sh.dh, sh.dw, src, sh.sh, sh.sw)
			}
		})
	}
}

// BenchmarkReduction times the two gradient-reduction policies over an
// 8-shard, 256k-coordinate buffer set (input bytes/sec).
func BenchmarkReduction(b *testing.B) {
	const shards, n = 8, 1 << 18
	r := rng.New(7)
	srcs := make([][]float32, shards)
	for s := range srcs {
		srcs[s] = make([]float32, n)
		for i := range srcs[s] {
			srcs[s][i] = r.NormFloat32()
		}
	}
	dst := make([]float32, n)
	b.Run("pairwise-f32", func(b *testing.B) {
		b.SetBytes(int64(shards) * 4 * n)
		for i := 0; i < b.N; i++ {
			PairwiseAccumulate(dst, srcs, nil)
		}
	})
	b.Run("canonical-f64", func(b *testing.B) {
		b.SetBytes(int64(shards) * 4 * n)
		for i := 0; i < b.N; i++ {
			CanonicalAccumulate(dst, srcs, nil)
		}
	})
	// The fp16 wire's reduces: every source rounded through binary16 as it
	// is read, at the engine's batch-mean weights.
	weights, scales := make([]float64, shards), make([]float32, shards)
	for s := range weights {
		weights[s], scales[s] = 1.0/shards, 1.0/shards
	}
	b.Run("pairwise-f32-half", func(b *testing.B) {
		b.SetBytes(int64(shards) * 4 * n)
		for i := 0; i < b.N; i++ {
			PairwiseAccumulateHalf(dst, srcs, scales)
		}
	})
	b.Run("canonical-f64-half", func(b *testing.B) {
		b.SetBytes(int64(shards) * 4 * n)
		for i := 0; i < b.N; i++ {
			CanonicalAccumulateHalf(dst, srcs, weights)
		}
	})
}

// BenchmarkGemmReLU times the products whose A operand went through a ReLU:
// half of its entries are zero, so most four-row blocks hold a zero scale
// and take the one-row axpy instead of axpyQuad. The shapes are the
// comm-bound MLP's first-layer dW = dyᵀ·x (TN: 512 hidden units, a 16-image
// batch, 1728 inputs) and its hidden dx = dy·W (NN).
func BenchmarkGemmReLU(b *testing.B) {
	r := rng.New(8)
	relu := func(n int) []float32 {
		v := randVec(r, n)
		for i := range v {
			v[i] = max(v[i], 0)
		}
		return v
	}
	b.Run("TN-dW", func(b *testing.B) {
		const m, n, k = 512, 1728, 16
		dy, x, c := relu(k*m), randVec(r, k*n), make([]float32, m*n)
		b.SetBytes(2 * m * n * k)
		for i := 0; i < b.N; i++ {
			GemmTN(m, n, k, 1, dy, m, 0, x, 0, c)
		}
	})
	b.Run("NN-dx", func(b *testing.B) {
		const m, n, k = 16, 512, 512
		dy, w, c := relu(m*k), randVec(r, k*n), make([]float32, m*n)
		b.SetBytes(2 * m * n * k)
		for i := 0; i < b.N; i++ {
			GemmNN(m, n, k, 1, dy, w, 0, c)
		}
	})
}
