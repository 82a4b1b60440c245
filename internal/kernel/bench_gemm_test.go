package kernel_test

import (
	"fmt"
	"testing"

	"repro/internal/kernel"
	"repro/internal/models"
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
		benchGemmPair(b, sh.name, sh.m, sh.n, sh.k, kernel.GemmNN, kernel.GemmNNHalf)
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

// BenchmarkGemmNT times the NT product at the shapes that lower onto it
// (bytes/sec reads as flop/s): the fully-connected forward x·Wᵀ of a
// 32-image batch through GemmNT and GemmNTHalf; then, f32 only, as the
// layers run them: train_fc_comm's two hidden forwards per goroutine (its
// MLP at width 64, a batch of 16 over two workers, each worker's rows split
// over two goroutines) and serve's batch-of-one forward through
// micro-AlexNet's first fully-connected layer; and, through both entry
// points, micro-ConvNet's per-sample dW of every conv layer (dy·colᵀ: outC ×
// inC·k·k over outH·outW pixels) at the progressive-resolution run's 12×12
// and 24×24. At 24×24 its conv1 and conv2 are micro-AlexNet's conv1 and
// conv2 dW shapes. The model shapes are read from their models specs.
func BenchmarkGemmNT(b *testing.B) {
	benchGemmPair(b, "fc-forward", 32, 512, 1728, kernel.GemmNT, kernel.GemmNTHalf)
	nt := func(name string, m, n, k int) { benchGemmPair(b, name, m, n, k, kernel.GemmNT, nil) }
	micro := models.MicroConfig{Classes: 8, InC: 3, InH: 24, InW: 24, Width: 8}
	mlp := micro
	mlp.Width = 64
	for _, l := range fcLayers(models.MLPSpec(mlp))[:2] {
		nt("mlp-"+l.name+"-forward", 4, l.out, l.in)
	}
	fc := fcLayers(models.MicroAlexNetSpec(micro))[0]
	nt("serve-"+fc.name+"-forward", 1, fc.out, fc.in)
	for _, res := range []int{12, 24} {
		s := models.MicroConvNetSpec(micro).At(res, res)
		for _, l := range s.Layers {
			if l.Kind != "conv" {
				continue
			}
			inC := s.InputC
			if l.In >= 0 {
				inC = s.Layers[l.In].OutC
			}
			benchGemmPair(b, fmt.Sprintf("convnet-%dx%d-%s-dW", res, res, l.Name), l.OutC, inC/l.Groups*l.K*l.K, l.OutH*l.OutW,
				kernel.GemmNT, kernel.GemmNTHalf)
		}
	}
}

type fcShape struct {
	name    string
	in, out int
}

// fcLayers lists a spec's fully-connected layers with their input width,
// the size of the activation that feeds each.
func fcLayers(s *models.ModelSpec) []fcShape {
	var fcs []fcShape
	for _, l := range s.Layers {
		if l.Kind != "fc" {
			continue
		}
		in := s.InputC * s.InputH * s.InputW
		if l.In >= 0 {
			f := s.Layers[l.In]
			in = f.OutC * f.OutH * f.OutW
		}
		fcs = append(fcs, fcShape{l.Name, in, l.OutC})
	}
	return fcs
}

// normals returns n standard normal draws from r.
func normals(r *rng.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = r.NormFloat32()
	}
	return v
}

// benchGemmTN runs one m×n×k TN product, op(A) read from the k×m array a
// (lda = m), on random operands (bytes/sec reads as flop/s).
func benchGemmTN(b *testing.B, name string, m, n, k int) {
	r := rng.New(42)
	a, bm, c := normals(r, k*m), normals(r, k*n), make([]float32, m*n)
	b.Run(fmt.Sprintf("%s/%dx%dx%d/f32", name, m, n, k), func(b *testing.B) {
		b.SetBytes(2 * int64(m) * int64(n) * int64(k))
		for i := 0; i < b.N; i++ {
			kernel.GemmTN(m, n, k, 1, a, m, 0, bm, 0, c)
		}
	})
}

// benchGemmPair runs one m×n×k product through a kernel's f32 entry point
// and, unless f16 is nil, its f16 entry point on the same random operands
// (bytes/sec reads as flop/s). The operand lengths m·k and k·n fit both the
// NN layout and the NT one.
func benchGemmPair(b *testing.B, name string, m, n, k int,
	f32 func(m, n, k int, alpha float32, a, b []float32, beta float32, c []float32),
	f16 func(m, n, k int, alpha float32, a, b []uint16, beta float32, c []float32)) {
	r := rng.New(42)
	a32, b32, c := normals(r, m*k), normals(r, k*n), make([]float32, m*n)
	flops := 2 * int64(m) * int64(n) * int64(k)
	b.Run(fmt.Sprintf("%s/%dx%dx%d/f32", name, m, n, k), func(b *testing.B) {
		b.SetBytes(flops)
		for i := 0; i < b.N; i++ {
			f32(m, n, k, 1, a32, b32, 0, c)
		}
	})
	if f16 == nil {
		return
	}
	a16, b16 := make([]uint16, len(a32)), make([]uint16, len(b32))
	kernel.EncodeHalf(a16, a32)
	kernel.EncodeHalf(b16, b32)
	b.Run(fmt.Sprintf("%s/%dx%dx%d/f16", name, m, n, k), func(b *testing.B) {
		b.SetBytes(flops)
		for i := 0; i < b.N; i++ {
			f16(m, n, k, 1, a16, b16, 0, c)
		}
	})
}
