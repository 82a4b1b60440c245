package serve_test

import (
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// TestTrainCheckpointServeBitIdentical closes the training↔serving loop the
// PR is about: train a micro-model for a few steps on the dist engine,
// capture the result with checkpoint.FromNetwork, round-trip it through the
// on-disk format, load it into a serve pool, and assert every served
// prediction is bit-identical to a direct single-image forward on the same
// weights — at f32 and at f16 storage precision. The serving tier must add
// exactly zero numerical surface over EvalAccuracy-style inference.
func TestTrainCheckpointServeBitIdentical(t *testing.T) {
	synth := data.GenerateSynth(data.SynthConfig{
		Classes: 4, TrainSize: 64, TestSize: 24, C: 3, H: 16, W: 16,
		Noise: 0.3, MaxShift: 2, Seed: 9,
	})
	factory := func() *nn.Network {
		return models.NewMicroAlexNet(models.MicroConfig{Classes: 4, InH: 16, Width: 4, Seed: 77})
	}

	// Train: three SGD steps across two data-parallel workers.
	replicas := []*nn.Network{factory(), factory()}
	engine := dist.NewEngine(dist.Config{Algo: dist.Ring}, replicas)
	defer engine.Close()
	idx := make([]int, 32)
	for i := range idx {
		idx[i] = i
	}
	xb, labels := synth.Train.MustGather(idx)
	for step := 0; step < 3; step++ {
		if _, err := engine.ComputeGradient(xb, labels); err != nil {
			t.Fatalf("train step %d: %v", step, err)
		}
		for _, p := range engine.Master().Params() {
			for i, g := range p.G.Data {
				p.W.Data[i] += float32(-0.05 * g)
			}
		}
		if err := engine.BroadcastWeights(); err != nil {
			t.Fatalf("broadcast step %d: %v", step, err)
		}
	}

	// Checkpoint: through the real on-disk format, not just the struct.
	path := filepath.Join(t.TempDir(), "trained.ckpt")
	if err := checkpoint.FromNetwork(engine.Master(), engine.Steps()).Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Step != 3 {
		t.Fatalf("checkpoint step = %d, want 3", loaded.Step)
	}

	// Sanity: training moved the weights, so the test is not comparing two
	// identical fresh initializations.
	trained := factory()
	if err := loaded.ApplyToNetwork(trained); err != nil {
		t.Fatal(err)
	}
	if weightsEqual(trained, factory()) {
		t.Fatal("checkpoint weights identical to fresh init; training had no effect")
	}

	testIdx := make([]int, synth.Test.Len())
	for i := range testIdx {
		testIdx[i] = i
	}
	images, _ := synth.Test.MustGather(testIdx)
	rowLen := images.Numel() / images.Dim(0)

	for _, prec := range []tensor.Precision{tensor.F32, tensor.F16} {
		cfg := serve.Config{MaxBatch: 6, MaxDelay: 150, Replicas: 2,
			Service: serve.ServiceModel{Base: 40, PerImage: 15}}
		pool, err := serve.PoolFromCheckpoint(cfg, factory, loaded)
		if err != nil {
			t.Fatal(err)
		}
		pool.SetPrecision(prec)

		ref := factory()
		if err := loaded.ApplyToNetwork(ref); err != nil {
			t.Fatal(err)
		}
		ref.SetPrecision(prec)

		trace := serve.PoissonTrace(48, 50, images.Dim(0), 3)
		rep, preds, err := pool.Run(trace, images)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats.Completed != int64(len(trace.Requests)) {
			t.Fatalf("%v: completed %d of %d requests", prec, rep.Stats.Completed, len(trace.Requests))
		}
		for r, req := range trace.Requests {
			x := tensor.New(append([]int{1}, images.Shape[1:]...)...)
			copy(x.Data, images.Data[req.Image*rowLen:(req.Image+1)*rowLen])
			logits := ref.Forward(x, false)
			if want := argmaxOf(logits.Data); preds[r] != want {
				t.Fatalf("%v: request %d served prediction %d, direct forward on checkpoint weights %d",
					prec, r, preds[r], want)
			}
		}
	}
}

// argmaxOf mirrors the pool's prediction rule: lowest index wins ties.
func argmaxOf(v []float32) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

func weightsEqual(a, b *nn.Network) bool {
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j := range pa[i].W.Data {
			if pa[i].W.Data[j] != pb[i].W.Data[j] {
				return false
			}
		}
	}
	return true
}
