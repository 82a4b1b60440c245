package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/tensor"
)

// localBase returns the shared recipe of the local-SGD trainer tests:
// 4 workers on the tiny task, 2 epochs of batch 64 (8 steps).
func localBase() Config {
	return Config{
		Model: mlpFactory(4), Workers: 4, Batch: 64, Epochs: 2,
		Method: BaselineSGD, BaseLR: 0.1, Seed: 11,
	}
}

// TestLocalSGDSyncEveryOneBitIdentical: SyncEvery=1 is the synchronous
// path — setting it must not perturb a single bit of the trajectory, across
// algorithms, hierarchy, overlap, reduction policy and storage precision.
func TestLocalSGDSyncEveryOneBitIdentical(t *testing.T) {
	ds := tinyDataset()
	hier := dist.NewHierarchy(2, 2)
	grid := []struct {
		name string
		mut  func(*Config)
	}{
		{"central", func(c *Config) { c.Algo = dist.Central }},
		{"tree", func(c *Config) { c.Algo = dist.Tree }},
		{"ring-overlap", func(c *Config) { c.Algo = dist.Ring; c.Overlap = true; c.Bucket = 16 }},
		{"hier", func(c *Config) { c.Topology = &hier }},
		{"pairwise", func(c *Config) { c.Algo = dist.Ring; c.Reduction = dist.PairwiseF32 }},
		{"f16", func(c *Config) { c.Algo = dist.Ring; c.Precision = tensor.F16 }},
	}
	for _, g := range grid {
		t.Run(g.name, func(t *testing.T) {
			base := localBase()
			g.mut(&base)
			withH := base
			withH.SyncEvery = 1
			a, err := Train(base, ds)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Train(withH, ds)
			if err != nil {
				t.Fatal(err)
			}
			if a.FinalLoss != b.FinalLoss || a.TestAcc != b.TestAcc {
				t.Fatalf("SyncEvery=1 perturbed the run: (%v,%v) vs (%v,%v)",
					b.FinalLoss, b.TestAcc, a.FinalLoss, a.TestAcc)
			}
			for e := range a.History {
				if a.History[e].TrainLoss != b.History[e].TrainLoss {
					t.Fatalf("epoch %d: %v vs %v", e, b.History[e].TrainLoss, a.History[e].TrainLoss)
				}
			}
			if a.Comm != b.Comm {
				t.Fatalf("SyncEvery=1 changed the schedule: %+v vs %+v", b.Comm, a.Comm)
			}
		})
	}
}

// TestLocalSGDNegativeControl: H=4 takes genuinely different steps — if the
// local path quietly fell back to every-step synchronization, the
// divergence study would be measuring nothing.
func TestLocalSGDNegativeControl(t *testing.T) {
	ds := tinyDataset()
	sync := localBase()
	loc := localBase()
	loc.SyncEvery = 4
	a, err := Train(sync, ds)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(loc, ds)
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalLoss == b.FinalLoss {
		t.Fatalf("H=4 reproduced the synchronous loss %v exactly — local steps are not local", a.FinalLoss)
	}
	if b.Diverged {
		t.Fatal("H=4 diverged on the tiny task")
	}
}

// TestLocalSGDDeterministic: the local path keeps the repo's determinism
// contract — reruns are bitwise identical.
func TestLocalSGDDeterministic(t *testing.T) {
	ds := tinyDataset()
	cfg := localBase()
	cfg.SyncEvery = 4
	cfg.Algo = dist.Ring
	a, err := Train(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalLoss != b.FinalLoss || a.TestAcc != b.TestAcc || a.Comm != b.Comm {
		t.Fatalf("non-deterministic local run: (%v,%v,%+v) vs (%v,%v,%+v)",
			a.FinalLoss, a.TestAcc, a.Comm, b.FinalLoss, b.TestAcc, b.Comm)
	}
}

// TestLocalSGDLedgerAndClosedForm: the trainer surfaces the engine's
// step/round ledger, and the run's measured counters (minus the
// construction broadcast) match comm.ExpectedLocalSGDStats exactly.
func TestLocalSGDLedgerAndClosedForm(t *testing.T) {
	ds := tinyDataset()
	cfg := localBase()
	cfg.SyncEvery = 4
	cfg.Algo = dist.Ring
	res, err := Train(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	steps := res.Iterations // 2 epochs x 4 batches
	if res.LocalSGD.LocalSteps != steps {
		t.Fatalf("ledger counts %d local steps for %d iterations", res.LocalSGD.LocalSteps, steps)
	}
	if want := comm.LocalSGDSyncRounds(steps, 4); res.LocalSGD.SyncRounds != want {
		t.Fatalf("%d sync rounds, want %d", res.LocalSGD.SyncRounds, want)
	}
	nelems := 0
	for _, p := range cfg.Model(1).Params() {
		nelems += p.Numel()
	}
	want := comm.ExpectedLocalSGDStats(dist.Ring, cfg.Workers, 4, steps, nelems, 0, nil)
	want.Add(dist.BroadcastSchedule(dist.Ring, cfg.Workers, 4*int64(nelems))) // construction sync
	if res.Comm != want {
		t.Fatalf("measured %+v, closed form %+v", res.Comm, want)
	}
	if res.TestAcc < 0.5 {
		t.Fatalf("local SGD stopped learning: accuracy %v", res.TestAcc)
	}
}

// TestLocalSGDHierTierComm: the hierarchical trainer's per-tier counters
// match the hierarchical closed form, intra rounds and all.
func TestLocalSGDHierTierComm(t *testing.T) {
	ds := tinyDataset()
	hier := dist.NewHierarchy(2, 2)
	cfg := localBase()
	cfg.Topology = &hier
	cfg.SyncEvery = 4
	cfg.IntraSyncEvery = 2
	res, err := Train(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	nelems := 0
	for _, p := range cfg.Model(1).Params() {
		nelems += p.Numel()
	}
	want := comm.ExpectedLocalSGDTierStats(hier, nil, 4, 2, res.Iterations, nelems, 0, nil)
	init := dist.HierBroadcastSchedule(hier, nil, 4*int64(nelems)) // construction sync
	want.Add(init)
	if res.TierComm != want {
		t.Fatalf("measured tiers %+v, closed form %+v", res.TierComm, want)
	}
	if res.TierComm.Total() != res.Comm {
		t.Fatalf("tier split %+v does not sum to %+v", res.TierComm, res.Comm)
	}
	if want := comm.LocalSGDIntraRounds(res.Iterations, 4, 2); res.LocalSGD.IntraRounds != want {
		t.Fatalf("%d intra rounds, want %d", res.LocalSGD.IntraRounds, want)
	}
}

// TestLocalSGDF16Trains: the F16 storage path composes with local mode
// (unscaled — the ledger runs, the loss stays finite, no scaler activity).
func TestLocalSGDF16Trains(t *testing.T) {
	ds := tinyDataset()
	cfg := localBase()
	cfg.SyncEvery = 2
	cfg.Precision = tensor.F16
	res, err := Train(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged || math.IsNaN(res.FinalLoss) {
		t.Fatalf("F16 local run diverged: loss %v", res.FinalLoss)
	}
	if res.Scale != (Result{}).Scale {
		t.Fatalf("local mode engaged the loss scaler: %+v", res.Scale)
	}
	if res.LocalSGD.SyncRounds != res.Iterations/2 {
		t.Fatalf("%d sync rounds for %d steps at H=2", res.LocalSGD.SyncRounds, res.Iterations)
	}
}

// TestLocalSGDRejectsIncompatibleConfigs pins the trainer-level contract:
// dynamic loss scaling needs the master-optimizer barrier local mode
// removes — and, like every configuration the engine cannot run, it comes
// back from Train (and Validate) as an error, not a panic. Micro-batching is
// not among them: each worker accumulates its chunks before its own step,
// and the run moves the same bytes as without chunks.
func TestLocalSGDRejectsIncompatibleConfigs(t *testing.T) {
	ds := tinyDataset()
	mustPanic := func(name string, cfg Config) {
		t.Helper()
		if cfg.Validate() == nil {
			t.Fatalf("%s: Validate accepted the config", name)
		}
		if res, err := Train(cfg, ds); err == nil || res != nil {
			t.Fatalf("%s: Train returned (%v, %v), want an error", name, res, err)
		}
	}
	whole := localBase()
	whole.SyncEvery = 2
	micro := whole
	micro.MicroBatch = 5 // 16-row shards run as 5, 5, 5 and 1 rows
	want, err := Train(whole, ds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Train(micro, ds)
	if err != nil {
		t.Fatalf("micro-batched local SGD: %v", err)
	}
	if got.Diverged || got.LocalSGD != want.LocalSGD || got.Comm != want.Comm {
		t.Fatalf("micro-batched local SGD: diverged %v, ledger %+v comm %+v; whole shards %+v %+v",
			got.Diverged, got.LocalSGD, got.Comm, want.LocalSGD, want.Comm)
	}
	scaled := localBase()
	scaled.SyncEvery = 2
	scaled.LossScale = 1024
	mustPanic("LossScale", scaled)
	negative := localBase()
	negative.MicroBatch = -1
	mustPanic("negative MicroBatch", negative)
	if err := negative.Validate(); !strings.Contains(err.Error(), "Config.MicroBatch") {
		t.Fatalf("negative MicroBatch: %v does not name the field", err)
	}
	starved := localBase()
	starved.Shards = 2
	mustPanic("Shards < Workers", starved)
	hier := dist.NewHierarchy(2, 3)
	mismatched := localBase()
	mismatched.Topology = &hier
	mustPanic("topology mismatch", mismatched)
	intra := localBase()
	intra.SyncEvery = 4
	intra.IntraSyncEvery = 2
	mustPanic("IntraSyncEvery without Topology", intra)
	if err := localBase().Validate(); err != nil {
		t.Fatalf("Validate rejected the base config: %v", err)
	}
}
