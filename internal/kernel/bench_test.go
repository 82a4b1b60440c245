package kernel

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// benchShapes are the NN geometries the micro models feed: a conv-lowered
// panel (outC × outH·outW with k = inC·kh·kw), micro-AlexNet's conv1 and
// conv2 forward products (one sample: outC × outH·outW over inC·3·3), a
// square reference point, and a fully-connected batch.
var benchShapes = []struct {
	name    string
	m, n, k int
}{
	{"conv-lowered", 32, 256, 27},
	{"conv1-forward", 8, 2304, 27},
	{"conv2-forward", 16, 864, 72},
	{"square", 256, 256, 256},
	{"fc", 64, 512, 1024},
}

// BenchmarkGemm compares the float32 GEMM against the binary16-storage GEMM
// at the micro-model shapes. Both run one body and one micro-kernel; the f16
// side decodes its panels first, so it is the f32 figure minus the price of
// that decode and cannot exceed it — the ratio of benchmark/'s
// kernel.gemm_f16_gflops to kernel.gemm_f32_gflops probes is what binary16
// storage costs at the kernel, not a speedup. The TN sub-benchmarks time
// micro-AlexNet's conv1 and conv2 dX products (Wᵀ·dy, one sample: inC·3·3 ×
// outH·outW over outC), which have no binary16 entry point.
func BenchmarkGemm(b *testing.B) {
	for _, sh := range benchShapes {
		benchGemmPair(b, sh.name, sh.m, sh.n, sh.k, GemmNN, GemmNNHalf)
	}
	for _, sh := range []struct {
		name    string
		m, n, k int
	}{
		{"conv1-dX", 27, 2304, 8},
		{"conv2-dX", 72, 864, 16},
	} {
		benchGemmTN(b, sh.name, sh.m, sh.n, sh.k)
	}
}

// benchGemmTN runs one m×n×k TN product, op(A) read from the k×m array a
// (lda = m), on random operands (bytes/sec reads as flop/s).
func benchGemmTN(b *testing.B, name string, m, n, k int) {
	r := rng.New(42)
	a, bm, c := randVec(r, k*m), randVec(r, k*n), make([]float32, m*n)
	b.Run(fmt.Sprintf("%s/%dx%dx%d/f32", name, m, n, k), func(b *testing.B) {
		b.SetBytes(2 * int64(m) * int64(n) * int64(k))
		for i := 0; i < b.N; i++ {
			GemmTN(m, n, k, 1, a, m, 0, bm, 0, c)
		}
	})
}

// BenchmarkGemmNT times the NT case (four columns per pairwiseDotQuad pass)
// at the shapes that lower onto it: micro-AlexNet's conv1 and conv2 dW
// (dy·colᵀ, one sample: outC × inC·3·3 over outH·outW pixels) and the
// fully-connected forward x·Wᵀ of a 32-image batch.
func BenchmarkGemmNT(b *testing.B) {
	for _, sh := range []struct {
		name    string
		m, n, k int
	}{
		{"conv1-dW", 8, 27, 576},
		{"conv2-dW", 16, 72, 144},
		{"fc-forward", 32, 512, 1728},
	} {
		benchGemmPair(b, sh.name, sh.m, sh.n, sh.k, GemmNT, GemmNTHalf)
	}
}

// benchGemmPair runs one m×n×k product through a kernel's f32 and f16 entry
// points on the same random operands (bytes/sec reads as flop/s).
func benchGemmPair(b *testing.B, name string, m, n, k int,
	f32 func(m, n, k int, alpha float32, a, b []float32, beta float32, c []float32),
	f16 func(m, n, k int, alpha float32, a, b []uint16, beta float32, c []float32)) {
	r := rng.New(42)
	a32 := make([]float32, m*k)
	b32 := make([]float32, k*n)
	for i := range a32 {
		a32[i] = r.NormFloat32()
	}
	for i := range b32 {
		b32[i] = r.NormFloat32()
	}
	a16 := make([]uint16, len(a32))
	b16 := make([]uint16, len(b32))
	EncodeHalf(a16, a32)
	EncodeHalf(b16, b32)
	c := make([]float32, m*n)
	flops := 2 * int64(m) * int64(n) * int64(k)
	b.Run(fmt.Sprintf("%s/%dx%dx%d/f32", name, m, n, k), func(b *testing.B) {
		b.SetBytes(flops)
		for i := 0; i < b.N; i++ {
			f32(m, n, k, 1, a32, b32, 0, c)
		}
	})
	b.Run(fmt.Sprintf("%s/%dx%dx%d/f16", name, m, n, k), func(b *testing.B) {
		b.SetBytes(flops)
		for i := 0; i < b.N; i++ {
			f16(m, n, k, 1, a16, b16, 0, c)
		}
	})
}

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
