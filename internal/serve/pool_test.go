package serve

import (
	"runtime"
	"testing"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func poolFixture(t *testing.T) (func() *nn.Network, *tensor.Tensor) {
	t.Helper()
	factory := func() *nn.Network {
		return models.NewMicroAlexNet(models.MicroConfig{Classes: 4, InH: 16, Width: 4, Seed: 77})
	}
	synth := data.GenerateSynth(data.SynthConfig{
		Classes: 4, TrainSize: 4, TestSize: 24, C: 3, H: 16, W: 16,
		Noise: 0.3, MaxShift: 2, Seed: 5,
	})
	idx := make([]int, synth.Test.Len())
	for i := range idx {
		idx[i] = i
	}
	images, _ := synth.Test.MustGather(idx)
	return factory, images
}

// Dynamic batching is invisible to clients: whatever batch a request lands
// in, its prediction is bit-identical to a direct single-image forward on
// the same weights — at f32 and at f16 storage precision.
func TestPoolBatchingTransparent(t *testing.T) {
	factory, images := poolFixture(t)
	for _, prec := range []tensor.Precision{tensor.F32, tensor.F16} {
		cfg := Config{MaxBatch: 5, MaxDelay: 120, Replicas: 3,
			Service: ServiceModel{Base: 40, PerImage: 15}}
		pool, err := NewPool(cfg, factory)
		if err != nil {
			t.Fatal(err)
		}
		pool.SetPrecision(prec)

		ref := factory()
		ref.CopyWeightsFrom(pool.Replica(0))
		ref.SetPrecision(prec)

		trace := PoissonTrace(60, 40, images.Dim(0), 11)
		rep, preds, err := pool.Run(trace, images)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats.Completed != int64(len(trace.Requests)) {
			t.Fatalf("%v: completed %d of %d", prec, rep.Stats.Completed, len(trace.Requests))
		}
		rowLen := images.Numel() / images.Dim(0)
		for r, req := range trace.Requests {
			x := tensor.New(append([]int{1}, images.Shape[1:]...)...)
			copy(x.Data, images.Data[req.Image*rowLen:(req.Image+1)*rowLen])
			logits := ref.Forward(x, false)
			if want := argmax(logits.Data); preds[r] != want {
				t.Fatalf("%v: request %d predicted %d, direct forward %d", prec, r, preds[r], want)
			}
		}
	}
}

// Pool output is invariant across replica counts: same trace, same
// predictions, same stats.
func TestPoolReplicaInvariance(t *testing.T) {
	factory, images := poolFixture(t)
	cfg := Config{MaxBatch: 4, MaxDelay: 200, Replicas: 1,
		Service: ServiceModel{Base: 30, PerImage: 10}}
	trace := UniformTrace(40, 100, images.Dim(0))

	p1, err := NewPool(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	rep1, preds1, err := p1.Run(trace, images)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Replicas = 3
	p3, err := NewPool(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	rep3, preds3, err := p3.Run(trace, images)
	if err != nil {
		t.Fatal(err)
	}
	if !rep1.Stats.Equal(rep3.Stats) {
		t.Fatalf("stats diverge across replica counts:\n%s", rep1.Stats.Diff(rep3.Stats))
	}
	for i := range preds1 {
		if preds1[i] != preds3[i] {
			t.Fatalf("prediction %d diverges: %d vs %d", i, preds1[i], preds3[i])
		}
	}
}

// A warm Pool.Run allocates no activation and no input batch: the batch is
// assembled in one buffer the pool reuses, and each replica's forward runs
// through its layers' eval slots. Beyond what Simulate allocates for the
// schedule, a batch costs the predictions Run returns (one int a request),
// the logits tensor each forward returns to Run, and the closures of the
// forward's parallel loops (see models' TestWarmStepAllocatesNoActivation),
// a bound that holds at batch 8 and at batch 32, whose input alone takes 24
// and 96 KB. GOMAXPROCS is 1, so no loop starts a goroutine.
func TestPoolRunReusesBuffers(t *testing.T) {
	const batchBytes = 16 << 10
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	factory, images := poolFixture(t)
	for _, k := range []int{8, 32} {
		cfg := Config{MaxBatch: k, MaxDelay: 1 << 20, Replicas: 1, Service: ServiceModel{Base: 1, PerImage: 1}}
		pool, err := NewPool(cfg, factory)
		if err != nil {
			t.Fatal(err)
		}
		const batches = 6
		trace := UniformTrace(batches*k, 1, images.Dim(0))
		measure := func(f func() error) uint64 {
			var before, after runtime.MemStats
			for i := 0; i < 2; i++ {
				if err := f(); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&before)
			if err := f(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		run := measure(func() error { _, _, err := pool.Run(trace, images); return err })
		sched := measure(func() error { _, err := Simulate(pool.cfg, trace); return err })
		perBatch := (run - min(run, sched)) / batches
		t.Logf("batch %d: %d bytes a batch beyond the schedule", k, perBatch)
		if perBatch > batchBytes {
			t.Errorf("batch %d: a warm Pool.Run allocates %d bytes a batch beyond Simulate, want <= %d", k, perBatch, batchBytes)
		}
	}
}
