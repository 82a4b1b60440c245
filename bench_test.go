// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). Benchmarks involving
// real training use a reduced configuration so the full suite stays within
// minutes; cmd/experiments runs the full-fidelity versions that populate
// EXPERIMENTS.md. Custom metrics are attached via b.ReportMetric: accuracies
// in percent, simulated times in minutes.
package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/harness"
	"repro/internal/kernel"
	"repro/internal/models"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// benchSetup is the reduced measured-experiment configuration used by the
// benchmarks: 1024 training examples, 10 epochs (the full EXPERIMENTS.md
// runs use 2048/20).
func benchSetup() *harness.Setup {
	s := harness.DefaultSetup()
	s.TrainSize = 1024
	s.Epochs = 10
	return s
}

func reportTable(b *testing.B, t *harness.Table) {
	b.Helper()
	if len(t.Rows) == 0 {
		b.Fatalf("%s produced no rows", t.ID)
	}
}

// BenchmarkAllreduce is the topology perf baseline: one full allreduce
// (Reduce + Broadcast) at P=8 across tensor sizes from a small dense layer
// (64K floats) up to ResNet-50's full gradient (25.6M floats). The custom
// metrics report the schedule each topology would put on the wire.
func BenchmarkAllreduce(b *testing.B) {
	const workers = 8
	sizes := []struct {
		name string
		n    int
	}{
		{"64K", 1 << 16},
		{"1M", 1 << 20},
		{"resnet50", int(models.ResNet50Spec().ParamCount())},
	}
	for _, algo := range []dist.Algorithm{dist.Central, dist.Tree, dist.Ring} {
		for _, size := range sizes {
			b.Run(fmt.Sprintf("%s/%s", algo, size.name), func(b *testing.B) {
				bufs := make([][]float32, workers)
				r := rng.New(1)
				for i := range bufs {
					bufs[i] = make([]float32, size.n)
					for j := 0; j < size.n; j += 127 {
						bufs[i][j] = r.NormFloat32()
					}
				}
				b.SetBytes(int64(4 * size.n))
				b.ResetTimer()
				var stats dist.CommStats
				for i := 0; i < b.N; i++ {
					stats = dist.CommStats{}
					dist.Reduce(algo, bufs, &stats)
					dist.Broadcast(algo, bufs, &stats)
				}
				b.ReportMetric(float64(stats.Messages), "msgs/op")
				b.ReportMetric(float64(stats.Steps), "rounds/op")
			})
		}
	}
}

// BenchmarkReduction compares the two reduction-policy kernels on the
// engine's own hot path: an 8-shard sum over tensors up to ResNet-50's
// full gradient. canonical-f64 is the strict-order float64 discipline,
// pairwise-f32 the fixed-tree float32 kernel — the measured gap is the
// ROADMAP's "vectorizable f32 pairwise summation" payoff. CI runs this at
// -benchtime 1x as a smoke test.
func BenchmarkReduction(b *testing.B) {
	sizes := []struct {
		name string
		n    int
	}{
		{"64K", 1 << 16},
		{"1M", 1 << 20},
		{"resnet50", int(models.ResNet50Spec().ParamCount())},
	}
	for _, policy := range []dist.Reduction{dist.CanonicalF64, dist.PairwiseF32} {
		for _, size := range sizes {
			b.Run(fmt.Sprintf("%s/%s", policy, size.name), func(b *testing.B) {
				const shards = 8
				r := rng.New(1)
				srcs := make([][]float32, shards)
				for s := range srcs {
					srcs[s] = make([]float32, size.n)
					for j := 0; j < size.n; j += 127 {
						srcs[s][j] = r.NormFloat32()
					}
				}
				dst := make([]float32, size.n)
				b.SetBytes(int64(shards * 4 * size.n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if policy == dist.PairwiseF32 {
						kernel.PairwiseAccumulate(dst, srcs, nil)
					} else {
						kernel.CanonicalAccumulate(dst, srcs, nil)
					}
				}
			})
		}
	}
}

// BenchmarkGemm times the blocked GEMM micro-kernels behind every conv and
// linear layer (tensor.Gemm lowers onto internal/kernel) at the layer
// shapes the micro models hit and at a square compute-bound size, in both
// storage precisions: /f32 is the float32 path, /f16 the binary16-storage
// path (tensor.GemmHalf: the same dispatch and the same float32 arithmetic
// after a decode, so on this host it trails /f32 by the cost of the decode
// and cannot lead it). The archived f32/f16 rates are benchmark/'s
// tensor.gemm_f32_gflops / tensor.gemm_f16_gflops probes.
// CI runs this at -benchtime 1x as a smoke test.
func BenchmarkGemm(b *testing.B) {
	shapes := []struct {
		name    string
		m, k, n int
	}{
		{"conv-lowered/32x27x256", 32, 27, 256}, // first conv: [outC, inC·k·k]·[k·k·inC, outH·outW]
		{"square/256", 256, 256, 256},
		{"fc/512x1024x64", 512, 1024, 64},
	}
	for _, sh := range shapes {
		r := rng.New(2)
		a := tensor.RandNormal(r, 1, sh.m, sh.k)
		x := tensor.RandNormal(r, 1, sh.k, sh.n)
		ah, xh := tensor.NewHalf(sh.m, sh.k), tensor.NewHalf(sh.k, sh.n)
		tensor.PackHalf(ah, a)
		tensor.PackHalf(xh, x)
		c := tensor.New(sh.m, sh.n)
		flops := int64(2 * sh.m * sh.k * sh.n * 4)
		b.Run(sh.name+"/f32", func(b *testing.B) {
			b.SetBytes(flops)
			for i := 0; i < b.N; i++ {
				tensor.Gemm(false, false, 1, a, x, 0, c)
			}
		})
		b.Run(sh.name+"/f16", func(b *testing.B) {
			b.SetBytes(flops)
			for i := 0; i < b.N; i++ {
				tensor.GemmHalf(false, false, 1, ah, xh, 0, c)
			}
		})
	}
}

// BenchmarkTable1_StateOfTheArt regenerates the headline comparison (32K
// ResNet-50 in ~15 minutes) from the calibrated simulator.
func BenchmarkTable1_StateOfTheArt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, harness.Table1())
	}
	est := cluster.Simulate(cluster.KNLCluster(2048), models.ResNet50Spec(), 32768, 64, 1280000)
	b.ReportMetric(est.TotalSec/60, "sim-minutes")
}

// BenchmarkTable2_IterationScaling regenerates the iteration/time model.
func BenchmarkTable2_IterationScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, harness.Table2(0.09, 0.05))
	}
}

// BenchmarkTable3_Baselines regenerates the benchmark-target table.
func BenchmarkTable3_Baselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, harness.Table3())
	}
}

// BenchmarkTable4_PriorWork regenerates the prior-work survey.
func BenchmarkTable4_PriorWork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, harness.Table4())
	}
}

// BenchmarkTable5_LRSweep runs the measured learning-rate sweep at a large
// batch without LARS (the divergence table).
func BenchmarkTable5_LRSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSetup()
		t, err := harness.Table5(s)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, t)
	}
}

// BenchmarkTable6_ScalingRatio regenerates the params/flops/ratio table
// from the exact model graphs.
func BenchmarkTable6_ScalingRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, harness.Table6())
	}
	b.ReportMetric(models.ResNet50Spec().ScalingRatio(), "resnet-ratio")
	b.ReportMetric(models.AlexNetSpec().ScalingRatio(), "alexnet-ratio")
}

// BenchmarkTable7_LARSSweep runs the measured LARS batch sweep.
func BenchmarkTable7_LARSSweep(b *testing.B) {
	var last *harness.Table
	for i := 0; i < b.N; i++ {
		s := benchSetup()
		t, err := harness.Table7(s)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, t)
		last = t
	}
	_ = last
}

// BenchmarkTable8_AlexNetTimes regenerates the AlexNet wall-clock table.
func BenchmarkTable8_AlexNetTimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, harness.Table8())
	}
	est := cluster.Simulate(cluster.CPUCluster(1024), models.AlexNetBNSpec(), 32768, 100, 1280000)
	b.ReportMetric(est.TotalSec/60, "sim-minutes-1024cpu")
}

// BenchmarkTable9_ResNetTimes regenerates the ResNet-50 wall-clock table.
func BenchmarkTable9_ResNetTimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, harness.Table9())
	}
	est := cluster.Simulate(cluster.KNLCluster(2048), models.ResNet50Spec(), 32768, 90, 1280000)
	b.ReportMetric(est.TotalSec/60, "sim-minutes-2048knl")
}

// BenchmarkTable10_AccuracyComparison regenerates the cross-team accuracy
// table.
func BenchmarkTable10_AccuracyComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, harness.Table10())
	}
}

// BenchmarkTable11_Networks regenerates the alpha-beta constants and prices
// allreduces on each fabric.
func BenchmarkTable11_Networks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, harness.Table11())
	}
}

// BenchmarkTable12_Energy regenerates the energy table.
func BenchmarkTable12_Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, harness.Table12())
	}
}

// BenchmarkFigure1_AccuracyVsBatch runs the measured accuracy-vs-batch
// comparison (the paper's headline figure) at bench scale and reports the
// LARS-vs-linear accuracies at the largest recoverable batch.
func BenchmarkFigure1_AccuracyVsBatch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSetup()
		t, err := harness.Figure1(s)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, t)
	}
}

// BenchmarkFigure3_ThroughputVsBatch regenerates the simulated M40 curve
// and measures this machine's real micro-AlexNet throughput growth with
// batch size (the same saturating shape: bigger batches feed the GEMM
// kernels better).
func BenchmarkFigure3_ThroughputVsBatch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, harness.Figure3())
	}
	net := models.NewMicroAlexNet(models.MicroConfig{Classes: 8, InH: 16, Width: 8, Seed: 1})
	r := rng.New(2)
	for _, batch := range []int{8, 64} {
		x := tensor.RandNormal(r, 1, batch, 3, 16, 16)
		net.Forward(x, false) // warm up buffers
		const iters = 5
		start := time.Now()
		for i := 0; i < iters; i++ {
			net.Forward(x, false)
		}
		imgPerSec := float64(iters*batch) / time.Since(start).Seconds()
		b.ReportMetric(imgPerSec, fmt.Sprintf("img/s-b%d", batch))
	}
}

// BenchmarkFigure4_LargeBatchCurves runs the measured per-epoch curves at a
// large batch, LARS vs linear scaling.
func BenchmarkFigure4_LargeBatchCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSetup()
		t, err := harness.Figure4(s)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, t)
	}
}

// BenchmarkFigure5_EpochCurves runs the fixed-budget accuracy-vs-epoch
// comparison (small batch vs large LARS batch).
func BenchmarkFigure5_EpochCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSetup()
		t, err := harness.Figure5and6(s)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, t)
	}
}

// BenchmarkFigure6_FlopCurves reports the flop accounting of the fixed
// budget: large batch adds no operations.
func BenchmarkFigure6_FlopCurves(b *testing.B) {
	spec := models.MicroAlexNetSpec(models.MicroConfig{Classes: 8, InH: 16, Width: 8})
	for i := 0; i < b.N; i++ {
		if spec.TrainFLOPsPerImage() <= 0 {
			b.Fatal("flop accounting broken")
		}
	}
	b.ReportMetric(float64(spec.TrainFLOPsPerImage()), "train-flops/image")
}

// BenchmarkFigure7_TimeToAccuracy regenerates the simulated time-to-target
// comparison on one DGX-1.
func BenchmarkFigure7_TimeToAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, harness.Figure7())
	}
	small := cluster.Simulate(cluster.DGX1(), models.AlexNetSpec(), 512, 100, 1280000)
	large := cluster.Simulate(cluster.DGX1(), models.AlexNetSpec(), 4096, 100, 1280000)
	b.ReportMetric(small.TotalSec/3600, "sim-hours-b512")
	b.ReportMetric(large.TotalSec/3600, "sim-hours-b4096")
}

// BenchmarkFigure8_Iterations regenerates iterations-vs-batch.
func BenchmarkFigure8_Iterations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, harness.Figure8())
	}
}

// BenchmarkFigure9_Messages regenerates messages-vs-batch.
func BenchmarkFigure9_Messages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, harness.Figure9())
	}
}

// BenchmarkFigure10_Volume regenerates communication-volume-vs-batch.
func BenchmarkFigure10_Volume(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, harness.Figure10())
	}
}
