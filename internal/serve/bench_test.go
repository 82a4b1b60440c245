package serve

import (
	"fmt"
	"testing"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// BenchmarkServeSchedule measures the pure scheduler: events per second of
// virtual time processed, no model forwards. This is the dispatch-path hot
// loop a real frontend would run per request.
func BenchmarkServeSchedule(b *testing.B) {
	cfg := Config{MaxBatch: 16, MaxDelay: 400, Replicas: 4,
		Service: ServiceModel{Base: 100, PerImage: 25}}
	trace := PoissonTrace(2000, 80, 16, 99)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(cfg, trace); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeForward measures one batch forward pass through the serve
// pool's replica at each batch size, at f32 and f16 — the curve
// benchmark/'s serve_f32 / serve_f16 workloads archive end to end
// (serve.fit_base_us + serve.fit_per_image_us per batch).
func BenchmarkServeForward(b *testing.B) {
	net := models.NewMicroAlexNet(models.MicroConfig{Classes: 8, InH: 24, Width: 8, Seed: 3})
	synth := data.GenerateSynth(data.SynthConfig{
		Classes: 8, TrainSize: 4, TestSize: 32, C: 3, H: 24, W: 24,
		Noise: 0.3, MaxShift: 2, Seed: 17,
	})
	idx := make([]int, synth.Test.Len())
	for i := range idx {
		idx[i] = i
	}
	images, _ := synth.Test.MustGather(idx)
	rowLen := images.Numel() / images.Dim(0)
	for _, size := range []int{1, 4, 16} {
		x := tensor.New(append([]int{size}, images.Shape[1:]...)...)
		for row := 0; row < size; row++ {
			img := row % images.Dim(0)
			copy(x.Data[row*rowLen:(row+1)*rowLen], images.Data[img*rowLen:(img+1)*rowLen])
		}
		for _, prec := range []tensor.Precision{tensor.F32, tensor.F16} {
			net.SetPrecision(prec)
			b.Run(fmt.Sprintf("b%d/%s", size, prec), func(b *testing.B) {
				benchForward(b, net, x, size)
			})
		}
	}
	net.SetPrecision(tensor.F32)
}

func benchForward(b *testing.B, net *nn.Network, x *tensor.Tensor, size int) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = net.Forward(x, false)
	}
	b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "img/s")
}
