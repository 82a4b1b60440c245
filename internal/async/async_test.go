package async

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
)

func testDataset() *data.Synth {
	return data.GenerateSynth(data.SynthConfig{
		Classes: 4, TrainSize: 512, TestSize: 256,
		C: 3, H: 8, W: 8, Noise: 0.3, MaxShift: 1, Flip: false, Seed: 11,
	})
}

func factory() func(uint64) *nn.Network {
	return func(seed uint64) *nn.Network {
		return models.NewMLP(models.MicroConfig{Classes: 4, InC: 3, InH: 8, InW: 8, Width: 4, Seed: seed})
	}
}

func TestAsyncSingleWorkerLearns(t *testing.T) {
	// One worker means no staleness: async degenerates to plain SGD.
	ds := testDataset()
	res, err := Train(Config{
		Model: factory(), Workers: 1, Batch: 32, Updates: 160,
		BaseLR: 0.1, Seed: 1,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged {
		t.Fatal("single-worker async diverged")
	}
	if res.MeanStaleness != 0 {
		t.Fatalf("single worker staleness = %v, want 0", res.MeanStaleness)
	}
	if res.TestAcc < 0.75 {
		t.Fatalf("accuracy %v, want >= 0.75", res.TestAcc)
	}
}

func TestAsyncDeterministic(t *testing.T) {
	ds := testDataset()
	cfg := Config{Model: factory(), Workers: 4, Batch: 32, Updates: 60,
		BaseLR: 0.1, Seed: 5}
	a, err := Train(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if a.TestAcc != b.TestAcc || a.MeanStaleness != b.MeanStaleness {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestStalenessGrowsWithWorkers(t *testing.T) {
	// Steady-state staleness of a FCFS parameter server is ~P-1.
	ds := testDataset()
	for _, p := range []int{2, 4, 8} {
		res, err := Train(Config{
			Model: factory(), Workers: p, Batch: 16, Updates: 80,
			BaseLR: 0.05, Seed: 3,
		}, ds)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(p - 1)
		if res.MeanStaleness < want*0.6 || res.MeanStaleness > want*1.4+0.5 {
			t.Errorf("P=%d: mean staleness %.2f, want ~%.0f", p, res.MeanStaleness, want)
		}
	}
}

// TestRoundRobinStaleness pins the schedule of regular workers: update v
// applies worker v mod P's gradient, computed min(v, P−1) updates earlier.
func TestRoundRobinStaleness(t *testing.T) {
	ds := testDataset()
	const p, updates = 5, 23
	res, err := Train(Config{Model: factory(), Workers: p, Batch: 8, Updates: updates, Seed: 4}, ds)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for v := 0; v < updates; v++ {
		sum += float64(min(v, p-1))
	}
	if res.MaxStaleness != p-1 || res.MeanStaleness != sum/updates || res.Updates != updates {
		t.Fatalf("got max %d mean %v updates %d, want %d, %v, %d",
			res.MaxStaleness, res.MeanStaleness, res.Updates, p-1, sum/updates, updates)
	}
}

// TestTrainRefusesBadConfig: a config Train cannot run is an error naming
// the field, not a panic.
func TestTrainRefusesBadConfig(t *testing.T) {
	ds, empty := testDataset(), &data.Synth{Train: &data.Dataset{}}
	for _, tc := range []struct {
		cfg  Config
		ds   *data.Synth
		want string
	}{
		{Config{}, ds, "Model"},
		{Config{Model: factory(), Workers: -2}, ds, "Workers"},
		{Config{Model: factory(), Batch: -1}, ds, "Batch"},
		{Config{Model: factory()}, empty, "empty training set"},
	} {
		if _, err := Train(tc.cfg, tc.ds); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Train(%+v) = %v, want an error naming %s", tc.cfg, err, tc.want)
		}
	}
}

// TestAsyncUnstableAtHighRateVsSync reproduces the paper's motivation for
// synchronous SGD: at an aggressive learning rate with momentum, stale
// gradients degrade final accuracy relative to a synchronous run that
// touches the same number of examples with the same rate schedule.
func TestAsyncUnstableAtHighRateVsSync(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison needs full-length runs")
	}
	ds := testDataset()
	const lr, updates, batch = 0.2, 160, 32

	asyncRes, err := Train(Config{
		Model: factory(), Workers: 8, Batch: batch, Updates: updates,
		BaseLR: lr, Momentum: 0.9, Seed: 2,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}

	// Synchronous counterpart: same per-update batch and schedule
	// (updates*batch = 10 epochs of 512 examples).
	syncRes, err := core.Train(core.Config{
		Model: factory(), Workers: 1, Batch: batch,
		Epochs: updates * batch / 512, Method: core.BaselineSGD,
		BaseLR: lr, Seed: 2,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sync acc=%.3f, async acc=%.3f (staleness mean %.1f)",
		syncRes.TestAcc, asyncRes.TestAcc, asyncRes.MeanStaleness)
	syncOK := !syncRes.Diverged && syncRes.TestAcc > 0.9
	asyncWorse := asyncRes.Diverged || asyncRes.TestAcc < syncRes.TestAcc-0.1
	if !syncOK {
		t.Fatalf("sync baseline itself failed (acc %.3f)", syncRes.TestAcc)
	}
	if !asyncWorse {
		t.Errorf("expected staleness to hurt at lr=%.1f: sync %.3f vs async %.3f",
			lr, syncRes.TestAcc, asyncRes.TestAcc)
	}
}
