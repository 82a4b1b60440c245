package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// tinyDataset is a fast-to-train synthetic task for unit tests.
func tinyDataset() *data.Synth {
	return data.GenerateSynth(data.SynthConfig{
		Classes: 4, TrainSize: 256, TestSize: 128,
		C: 3, H: 8, W: 8, Noise: 0.25, MaxShift: 1, Flip: false, Seed: 7,
	})
}

func mlpFactory(width int) func(uint64) *nn.Network {
	return func(seed uint64) *nn.Network {
		return models.NewMLP(models.MicroConfig{Classes: 4, InC: 3, InH: 8, InW: 8, Width: width, Seed: seed})
	}
}

func TestTrainBaselineLearns(t *testing.T) {
	ds := tinyDataset()
	res, err := Train(Config{
		Model: mlpFactory(4), Batch: 32, Epochs: 8, Method: BaselineSGD,
		BaseLR: 0.1, Seed: 1,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged {
		t.Fatal("baseline diverged")
	}
	if res.TestAcc < 0.8 {
		t.Fatalf("baseline accuracy %v, want >= 0.8", res.TestAcc)
	}
	if len(res.History) != 8 {
		t.Fatalf("history has %d epochs, want 8", len(res.History))
	}
	if res.Iterations != 8*(256/32) {
		t.Fatalf("iterations = %d, want 64", res.Iterations)
	}
}

func TestTrainDeterministic(t *testing.T) {
	ds := tinyDataset()
	cfg := Config{Model: mlpFactory(4), Batch: 64, Epochs: 3, Method: LARSWarmup,
		BaseLR: 0.1, WarmupEpochs: 1, Trust: 0.05, Seed: 9}
	a, err := Train(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalLoss != b.FinalLoss || a.TestAcc != b.TestAcc {
		t.Fatalf("non-deterministic: (%v,%v) vs (%v,%v)", a.FinalLoss, a.TestAcc, b.FinalLoss, b.TestAcc)
	}
}

func TestTrainMultiWorkerCloseToSingle(t *testing.T) {
	ds := tinyDataset()
	mk := func(workers int) *Result {
		res, err := Train(Config{
			Model: mlpFactory(4), Workers: workers, Algo: dist.Ring,
			Batch: 64, Epochs: 4, Method: BaselineSGD, BaseLR: 0.1, Seed: 3,
		}, ds)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one, four := mk(1), mk(4)
	if math.Abs(one.FinalLoss-four.FinalLoss) > 1e-3*(1+one.FinalLoss) {
		t.Fatalf("P=4 loss %v differs from P=1 loss %v", four.FinalLoss, one.FinalLoss)
	}
}

// TestMultiWorkerBitIdenticalToSingle is the engine's headline guarantee at
// the trainer level: with the logical shard split pinned, a 4-worker run
// reproduces the single-worker loss trajectory bit-identically — physical
// parallelism is invisible to the numerics.
func TestMultiWorkerBitIdenticalToSingle(t *testing.T) {
	ds := tinyDataset()
	run := func(workers int) *Result {
		res, err := Train(Config{
			Model: mlpFactory(4), Workers: workers, Shards: 4, Algo: dist.Tree,
			Batch: 64, Epochs: 3, Method: LARSWarmup,
			BaseLR: 0.1, WarmupEpochs: 1, Trust: 0.05, Seed: 9,
		}, ds)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one, four := run(1), run(4)
	if len(one.History) != len(four.History) {
		t.Fatalf("history lengths differ: %d vs %d", len(one.History), len(four.History))
	}
	for e := range one.History {
		a, b := one.History[e], four.History[e]
		if a.TrainLoss != b.TrainLoss {
			t.Fatalf("epoch %d: P=4 loss %v differs bitwise from P=1 loss %v", e, b.TrainLoss, a.TrainLoss)
		}
		if a.TestAcc != b.TestAcc && !(math.IsNaN(a.TestAcc) && math.IsNaN(b.TestAcc)) {
			t.Fatalf("epoch %d: P=4 acc %v differs from P=1 acc %v", e, b.TestAcc, a.TestAcc)
		}
	}
	if one.FinalLoss != four.FinalLoss || one.TestAcc != four.TestAcc {
		t.Fatalf("final results differ: (%v,%v) vs (%v,%v)", one.FinalLoss, one.TestAcc, four.FinalLoss, four.TestAcc)
	}
}

// TestFaultyTrainingMatchesClean: dropped and straggling workers must not
// change a single bit of the trajectory — recovery is exact — while the
// recorded stats show the recovery traffic.
func TestFaultyTrainingMatchesClean(t *testing.T) {
	ds := tinyDataset()
	run := func(faults *dist.FaultPlan) *Result {
		res, err := Train(Config{
			Model: mlpFactory(4), Workers: 4, Batch: 64, Epochs: 2,
			Method: BaselineSGD, BaseLR: 0.1, Seed: 3, Faults: faults,
		}, ds)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run(nil)
	faulty := run(&dist.FaultPlan{Seed: 5, DropRate: 0.3, StallRate: 0.3})
	if clean.FinalLoss != faulty.FinalLoss || clean.TestAcc != faulty.TestAcc {
		t.Fatalf("faults changed the trajectory: (%v,%v) vs (%v,%v)",
			faulty.FinalLoss, faulty.TestAcc, clean.FinalLoss, clean.TestAcc)
	}
	if faulty.Comm.Retries == 0 {
		t.Fatal("fault plan recorded no retries")
	}
	if faulty.Comm.Messages <= clean.Comm.Messages {
		t.Fatal("recovery should add resent messages")
	}
}

func TestDivergenceDetected(t *testing.T) {
	ds := tinyDataset()
	// An absurd learning rate with no warmup must blow up, be detected,
	// and be reported — not crash (the paper's Table 5 0.001-accuracy rows).
	res, err := Train(Config{
		Model: mlpFactory(4), Batch: 128, Epochs: 6, Method: LinearScalingWarmup,
		BaseLR: 500, BaseBatch: 128, Seed: 2,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Diverged {
		t.Fatalf("expected divergence at lr=500, got acc %v", res.TestAcc)
	}
	if len(res.History) == 0 {
		t.Fatal("divergence must still record history")
	}
	// A milder-but-fatal rate may not hit NaN (dead ReLUs pin the loss at
	// ln(K)); it must still end at chance accuracy — the paper's "0.001"
	// failure mode rather than a crash.
	res2, err := Train(Config{
		Model: mlpFactory(4), Batch: 128, Epochs: 6, Method: LinearScalingWarmup,
		BaseLR: 50, BaseBatch: 128, Seed: 2,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Diverged && res2.TestAcc > 0.4 {
		t.Fatalf("lr=50 should fail to learn, got acc %v", res2.TestAcc)
	}
}

func TestTargetLR(t *testing.T) {
	cfg := Config{Method: LinearScalingWarmup, BaseLR: 0.02, BaseBatch: 512, Batch: 4096}
	if got := cfg.TargetLR(); math.Abs(got-0.16) > 1e-12 {
		t.Fatalf("TargetLR = %v, want 0.16 (Table 5's linear-scaled rate)", got)
	}
	cfg.Method = BaselineSGD
	if got := cfg.TargetLR(); got != 0.02 {
		t.Fatalf("baseline TargetLR = %v, want base", got)
	}
}

func TestTrainWithAugmentation(t *testing.T) {
	ds := tinyDataset()
	res, err := Train(Config{
		Model: mlpFactory(4), Batch: 64, Epochs: 3, Method: LARSWarmup,
		BaseLR: 0.1, Trust: 0.05, WarmupEpochs: 1, Augment: true, Seed: 4,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged {
		t.Fatal("augmented run diverged")
	}
}

func TestTrainRecordsCommStats(t *testing.T) {
	ds := tinyDataset()
	res, err := Train(Config{
		Model: mlpFactory(4), Workers: 4, Batch: 64, Epochs: 2,
		Method: BaselineSGD, BaseLR: 0.05, Seed: 5,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm.Messages == 0 || res.Comm.Bytes == 0 {
		t.Fatal("multi-worker run recorded no communication")
	}
}

func TestBatchLargerThanDatasetErrors(t *testing.T) {
	ds := tinyDataset()
	_, err := Train(Config{Model: mlpFactory(4), Batch: 100000, Epochs: 1}, ds)
	if err == nil {
		t.Fatal("expected error for oversized batch")
	}
}

// TestMicroBatchingMatchesFullBatch: gradient accumulation must produce the
// same optimizer trajectory as the single-pass batch up to float32
// summation order (exact for an MLP, which has no batch statistics).
func TestMicroBatchingMatchesFullBatch(t *testing.T) {
	ds := tinyDataset()
	run := func(micro int) *Result {
		res, err := Train(Config{
			Model: mlpFactory(4), Batch: 64, Epochs: 4, Method: BaselineSGD,
			BaseLR: 0.1, MicroBatch: micro, Seed: 6,
		}, ds)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full := run(0)
	chunked := run(16)
	if math.Abs(full.FinalLoss-chunked.FinalLoss) > 1e-4*(1+full.FinalLoss) {
		t.Fatalf("micro-batched loss %v differs from full-batch %v", chunked.FinalLoss, full.FinalLoss)
	}
	if full.TestAcc != chunked.TestAcc {
		t.Fatalf("accuracies differ: %v vs %v", chunked.TestAcc, full.TestAcc)
	}
	// Iterations counts optimizer steps, not the chunks a step is cut into.
	if chunked.Iterations != full.Iterations {
		t.Fatalf("micro-batched run reports %d iterations, full-batch %d", chunked.Iterations, full.Iterations)
	}
}

func TestMicroBatchUnevenChunks(t *testing.T) {
	ds := tinyDataset()
	// 64 % 24 != 0: the last chunk is short and must be weighted correctly.
	res, err := Train(Config{
		Model: mlpFactory(4), Batch: 64, Epochs: 2, Method: BaselineSGD,
		BaseLR: 0.1, MicroBatch: 24, Seed: 6,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged {
		t.Fatal("uneven micro-batching diverged")
	}
}

// TestLARSHoldsAccuracyAtLargeBatch is the measured core result: at a batch
// size where linear scaling + warmup collapses, LARS + warmup stays near the
// small-batch baseline (the Figure 1 / Figure 4 phenomenon). This is the
// repository's analog of the paper's headline claim, so it runs the real
// tuned configuration (~30s); skipped in -short mode.
func TestLARSHoldsAccuracyAtLargeBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full measured comparison (~30s)")
	}
	synCfg := data.DefaultSynthConfig()
	synCfg.TrainSize = 2048
	synCfg.H, synCfg.W = 16, 16
	ds := data.GenerateSynth(synCfg)
	factory := func(seed uint64) *nn.Network {
		return models.NewMicroAlexNet(models.MicroConfig{Classes: 8, InH: 16, Width: 8, Seed: seed})
	}
	common := Config{
		Model: factory, Workers: 2, Batch: 1024, Epochs: 20,
		BaseLR: 0.05, BaseBatch: 32, WarmupEpochs: 5, Seed: 1,
	}
	linear := common
	linear.Method = LinearScalingWarmup
	lars := common
	lars.Method = LARSWarmup
	lars.Trust = 0.05

	lres, err := Train(linear, ds)
	if err != nil {
		t.Fatal(err)
	}
	rres, err := Train(lars, ds)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("B=1024: linear acc=%.3f, LARS acc=%.3f", lres.TestAcc, rres.TestAcc)
	if rres.TestAcc < lres.TestAcc+0.2 {
		t.Errorf("LARS (%.3f) should clearly beat linear scaling (%.3f) at large batch",
			rres.TestAcc, lres.TestAcc)
	}
	if rres.TestAcc < 0.85 {
		t.Errorf("LARS accuracy %.3f should stay near the baseline (~1.0)", rres.TestAcc)
	}
}

// TestHierarchyTrajectoryBitIdenticalToFlat is the PR's acceptance
// criterion at the trainer level: a run over a two-tier Hierarchy topology
// reproduces the flat-topology loss trajectory bit-for-bit (same shard
// split), while Result.TierComm records a two-tier schedule whose aggregate
// equals Result.Comm.
func TestHierarchyTrajectoryBitIdenticalToFlat(t *testing.T) {
	ds := tinyDataset()
	run := func(topology *dist.Hierarchy) *Result {
		res, err := Train(Config{
			Model: mlpFactory(4), Workers: 4, Shards: 4,
			Algo: dist.Ring, Topology: topology,
			Batch: 64, Epochs: 3, Method: LARSWarmup,
			BaseLR: 0.1, WarmupEpochs: 1, Trust: 0.05, Seed: 9,
		}, ds)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	h := dist.NewHierarchy(2, 2)
	flat, hier := run(nil), run(&h)
	if len(flat.History) != len(hier.History) {
		t.Fatalf("history lengths differ: %d vs %d", len(flat.History), len(hier.History))
	}
	for e := range flat.History {
		a, b := flat.History[e], hier.History[e]
		if a.TrainLoss != b.TrainLoss {
			t.Fatalf("epoch %d: hierarchical loss %v differs bitwise from flat %v", e, b.TrainLoss, a.TrainLoss)
		}
		if a.TestAcc != b.TestAcc && !(math.IsNaN(a.TestAcc) && math.IsNaN(b.TestAcc)) {
			t.Fatalf("epoch %d: hierarchical acc %v differs from flat %v", e, b.TestAcc, a.TestAcc)
		}
	}
	if flat.FinalLoss != hier.FinalLoss || flat.TestAcc != hier.TestAcc {
		t.Fatalf("final results differ: (%v,%v) vs (%v,%v)", flat.FinalLoss, flat.TestAcc, hier.FinalLoss, hier.TestAcc)
	}
	if flat.TierComm != (dist.TierStats{}) {
		t.Fatalf("flat run recorded tier stats %+v", flat.TierComm)
	}
	if hier.TierComm.Total() != hier.Comm {
		t.Fatalf("tier total %+v != aggregate %+v", hier.TierComm.Total(), hier.Comm)
	}
	if hier.TierComm.Intra.Messages == 0 || hier.TierComm.Inter.Messages == 0 {
		t.Fatalf("both tiers should carry traffic: %+v", hier.TierComm)
	}
}

// TestElasticTrainingSurvivesDeadWorker: a run that loses a worker
// mid-training evicts it, finishes on P−1, and reports the membership
// timeline — bit-identically across topologies under the same fault plan
// and policy (the trainer-level face of dist's determinism contract).
func TestElasticTrainingSurvivesDeadWorker(t *testing.T) {
	ds := tinyDataset()
	hier := dist.NewHierarchy(2, 2)
	run := func(algo dist.Algorithm, topo *dist.Hierarchy) *Result {
		res, err := Train(Config{
			Model: mlpFactory(4), Workers: 4, Algo: algo, Topology: topo,
			Batch: 64, Epochs: 2, Method: BaselineSGD, BaseLR: 0.1, Seed: 3,
			Faults:  &dist.FaultPlan{Seed: 5, Dead: map[int]int64{3: 2}},
			Elastic: &dist.Elastic{EvictAfter: 2},
		}, ds)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(dist.Central, nil)
	if ref.Membership.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", ref.Membership.Evictions)
	}
	if ref.Membership.StepsAtWorld[4] != 4 || ref.Membership.StepsAtWorld[3] != ref.Iterations-4 {
		t.Fatalf("world histogram %v, want 4 steps at P=4 then the rest at P=3 (of %d)",
			ref.Membership.StepsAtWorld, ref.Iterations)
	}
	if ref.Membership.RebalancedShards == 0 || ref.Membership.RebalancedBytes == 0 {
		t.Fatalf("rebalance accounting empty: %+v", ref.Membership)
	}
	for _, v := range []struct {
		name string
		algo dist.Algorithm
		topo *dist.Hierarchy
	}{{"ring", dist.Ring, nil}, {"hier", dist.Tree, &hier}} {
		got := run(v.algo, v.topo)
		if got.FinalLoss != ref.FinalLoss || got.TestAcc != ref.TestAcc {
			t.Fatalf("%s: degraded trajectory differs across topologies: (%v,%v) vs (%v,%v)",
				v.name, got.FinalLoss, got.TestAcc, ref.FinalLoss, ref.TestAcc)
		}
		if got.Membership.Timeline() != ref.Membership.Timeline() {
			t.Fatalf("%s: membership timeline %q vs %q", v.name, got.Membership.Timeline(), ref.Membership.Timeline())
		}
	}
}

// TestElasticTrainerJoinBitIdenticalToClean is the trainer-level face of
// the scale-up contract: with the shard split pinned, a run that loses a
// worker mid-training and readmits it later produces the exact loss/acc
// trajectory of a clean fault-free run — the grow-shrink-grow membership
// history is invisible to the numerics — while Result.Membership reports
// the full eviction+join timeline.
func TestElasticTrainerJoinBitIdenticalToClean(t *testing.T) {
	ds := tinyDataset()
	run := func(faults *dist.FaultPlan, elastic *dist.Elastic) *Result {
		res, err := Train(Config{
			Model: mlpFactory(4), Workers: 4, Shards: 4,
			Batch: 64, Epochs: 2, Method: BaselineSGD, BaseLR: 0.1, Seed: 3,
			Faults: faults, Elastic: elastic,
		}, ds)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run(nil, nil)
	// 8 iterations total: dead at 2, evicted closing 3 (EvictAfter 2),
	// readmitted at the step-6 boundary — world 4,4,4,4,3,3,4,4.
	elastic := run(
		&dist.FaultPlan{Seed: 5, Dead: map[int]int64{3: 2}, Join: map[int]int64{3: 6}},
		&dist.Elastic{EvictAfter: 2},
	)
	if len(clean.History) != len(elastic.History) {
		t.Fatalf("history lengths differ: %d vs %d", len(clean.History), len(elastic.History))
	}
	for e := range clean.History {
		a, b := clean.History[e], elastic.History[e]
		if a.TrainLoss != b.TrainLoss {
			t.Fatalf("epoch %d: elastic loss %v differs bitwise from clean loss %v", e, b.TrainLoss, a.TrainLoss)
		}
		if a.TestAcc != b.TestAcc && !(math.IsNaN(a.TestAcc) && math.IsNaN(b.TestAcc)) {
			t.Fatalf("epoch %d: elastic acc %v differs from clean acc %v", e, b.TestAcc, a.TestAcc)
		}
	}
	if clean.FinalLoss != elastic.FinalLoss || clean.TestAcc != elastic.TestAcc {
		t.Fatalf("final results differ: (%v,%v) vs (%v,%v)",
			elastic.FinalLoss, elastic.TestAcc, clean.FinalLoss, clean.TestAcc)
	}
	m := elastic.Membership
	if m.Evictions != 1 || m.Joins != 1 {
		t.Fatalf("evictions=%d joins=%d, want 1 and 1", m.Evictions, m.Joins)
	}
	if m.StepsAtWorld[4] != 6 || m.StepsAtWorld[3] != 2 {
		t.Fatalf("world histogram %v, want 6 steps at P=4 and 2 at P=3", m.StepsAtWorld)
	}
	if got := m.EventTimeline(); got != "-3@4 +3@6" {
		t.Fatalf("event timeline %q, want %q", got, "-3@4 +3@6")
	}
	if m.JoinedShards == 0 || m.JoinedBytes == 0 {
		t.Fatalf("join accounting empty: %+v", m)
	}
}

// TestDeadWorkerWithoutElasticityErrors: with elasticity off, a permanent
// death surfaces the typed worker-dead error instead of silently retrying
// the worker for the rest of the run.
func TestDeadWorkerWithoutElasticityErrors(t *testing.T) {
	ds := tinyDataset()
	_, err := Train(Config{
		Model: mlpFactory(4), Workers: 2, Batch: 64, Epochs: 2,
		Method: BaselineSGD, BaseLR: 0.1, Seed: 3,
		Faults: &dist.FaultPlan{Dead: map[int]int64{1: 1}},
	}, ds)
	var dead *dist.WorkerDeadError
	if !errors.As(err, &dead) {
		t.Fatalf("expected *dist.WorkerDeadError, got %v", err)
	}
	if dead.Worker != 1 {
		t.Fatalf("dead worker %d, want 1", dead.Worker)
	}
}

// TestPairwiseTrainerBitIdenticalAcrossWorkersAndTopology is the
// trainer-level acceptance criterion of the pairwise-f32 policy: with the
// shard split pinned, whole training runs — losses and accuracies, epoch
// by epoch — are bit-identical across worker counts, flat vs hierarchical
// topologies, and overlap on/off.
func TestPairwiseTrainerBitIdenticalAcrossWorkersAndTopology(t *testing.T) {
	ds := tinyDataset()
	hier := dist.NewHierarchy(2, 2)
	run := func(workers int, topology *dist.Hierarchy, bucket int, overlap bool) *Result {
		res, err := Train(Config{
			Model: mlpFactory(4), Workers: workers, Shards: 4,
			Algo: dist.Ring, Topology: topology, Bucket: bucket, Overlap: overlap,
			Reduction: dist.PairwiseF32,
			Batch:     64, Epochs: 3, Method: LARSWarmup,
			BaseLR: 0.1, WarmupEpochs: 1, Trust: 0.05, Seed: 9,
		}, ds)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1, nil, 0, false)
	for _, tc := range []struct {
		label string
		res   *Result
	}{
		{"P=2 flat", run(2, nil, 0, false)},
		{"P=4 flat", run(4, nil, 0, false)},
		{"P=4 hierarchical", run(4, &hier, 0, false)},
		{"P=4 overlap", run(4, nil, 33, true)},
	} {
		if len(tc.res.History) != len(ref.History) {
			t.Fatalf("%s: history lengths differ", tc.label)
		}
		for e := range ref.History {
			a, b := ref.History[e], tc.res.History[e]
			if a.TrainLoss != b.TrainLoss {
				t.Fatalf("%s: epoch %d loss %v differs bitwise from reference %v", tc.label, e, b.TrainLoss, a.TrainLoss)
			}
			if !(math.IsNaN(a.TestAcc) && math.IsNaN(b.TestAcc)) && a.TestAcc != b.TestAcc {
				t.Fatalf("%s: epoch %d accuracy differs bitwise", tc.label, e)
			}
		}
	}
	// The two policies really differ: a canonical run from the same seed
	// must not match the pairwise trajectory bit for bit.
	canon, err := Train(Config{
		Model: mlpFactory(4), Workers: 1, Shards: 4, Algo: dist.Ring,
		Batch: 64, Epochs: 3, Method: LARSWarmup,
		BaseLR: 0.1, WarmupEpochs: 1, Trust: 0.05, Seed: 9,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for e := range ref.History {
		if canon.History[e].TrainLoss != ref.History[e].TrainLoss {
			same = false
		}
	}
	if same {
		t.Fatal("canonical and pairwise trajectories agree bitwise — the policy is not reaching the engine")
	}
}

// TestTrainProfileSurfaced: Config.Profile threads through to
// Result.Profile with the sums-to-wall invariant intact.
func TestTrainProfileSurfaced(t *testing.T) {
	ds := tinyDataset()
	res, err := Train(Config{
		Model: mlpFactory(4), Workers: 2, Batch: 64, Epochs: 2,
		Method: BaselineSGD, BaseLR: 0.1, Seed: 4, Profile: true,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Profile
	if p.WallNS <= 0 || p.GemmNS <= 0 {
		t.Fatalf("profile not populated: %+v", p)
	}
	if p.Accounted() != p.WallNS {
		t.Fatalf("profile phases sum to %d ns, wall is %d ns", p.Accounted(), p.WallNS)
	}

	// And without the flag the result stays zero.
	res, err = Train(Config{
		Model: mlpFactory(4), Workers: 2, Batch: 64, Epochs: 1,
		Method: BaselineSGD, BaseLR: 0.1, Seed: 4,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile != (dist.ProfileStats{}) {
		t.Fatalf("unprofiled run reported profile stats: %+v", res.Profile)
	}
}

// convFactory builds a small conv net so the F16 tests exercise the im2col
// GEMM path, not just the MLP's plain linears. No dropout and no batch norm:
// per-replica RNG streams and running statistics are worker-count-dependent
// and would break bit-identity for any precision.
func convFactory(width int) func(uint64) *nn.Network {
	return func(seed uint64) *nn.Network {
		r := rng.New(seed)
		return nn.NewNetwork("conv-prec",
			nn.NewConv("conv1", r, 3, width, 3, 1, 1, nn.ConvOpts{}),
			nn.NewReLU("relu1"),
			nn.NewMaxPool("pool1", 2, 2, 0),
			nn.NewFlatten(),
			nn.NewLinear("fc", r, width*4*4, 4),
		)
	}
}

// TestF16TrainerBitIdenticalAcrossDecompositions: under Precision F16 the
// trainer keeps the repo's headline guarantee — for a pinned shard split the
// trajectory is bit-identical across worker counts, hierarchy, overlap and
// reduction bucketing — and the negative control shows the F16 trajectory
// really differs from F32 (the precision switch reaches the kernels).
func TestF16TrainerBitIdenticalAcrossDecompositions(t *testing.T) {
	ds := tinyDataset()
	hier := dist.NewHierarchy(2, 2)
	run := func(precision tensor.Precision, workers int, topology *dist.Hierarchy, bucket int, overlap bool) *Result {
		res, err := Train(Config{
			Model: convFactory(4), Workers: workers, Shards: 4,
			Algo: dist.Ring, Topology: topology, Bucket: bucket, Overlap: overlap,
			Precision: precision,
			Batch:     64, Epochs: 2, Method: LARSWarmup,
			BaseLR: 0.1, WarmupEpochs: 1, Trust: 0.05, Seed: 9,
		}, ds)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(tensor.F16, 1, nil, 0, false)
	if ref.Diverged {
		t.Fatal("F16 reference run diverged")
	}
	if ref.Scale.Scale == 0 {
		t.Fatalf("F16 run reported no loss-scaler activity: %+v", ref.Scale)
	}
	for _, tc := range []struct {
		label string
		res   *Result
	}{
		{"P=2 flat", run(tensor.F16, 2, nil, 0, false)},
		{"P=4 flat", run(tensor.F16, 4, nil, 0, false)},
		{"P=4 hierarchical", run(tensor.F16, 4, &hier, 0, false)},
		{"P=4 overlap", run(tensor.F16, 4, nil, 33, true)},
	} {
		if len(tc.res.History) != len(ref.History) {
			t.Fatalf("%s: history lengths differ", tc.label)
		}
		for e := range ref.History {
			a, b := ref.History[e], tc.res.History[e]
			if a.TrainLoss != b.TrainLoss {
				t.Fatalf("%s: epoch %d F16 loss %v differs bitwise from reference %v", tc.label, e, b.TrainLoss, a.TrainLoss)
			}
			if !(math.IsNaN(a.TestAcc) && math.IsNaN(b.TestAcc)) && a.TestAcc != b.TestAcc {
				t.Fatalf("%s: epoch %d accuracy differs bitwise", tc.label, e)
			}
		}
	}
	// Negative control: the same seed at F32 must not reproduce the F16
	// trajectory bit for bit.
	f32 := run(tensor.F32, 1, nil, 0, false)
	same := true
	for e := range ref.History {
		if f32.History[e].TrainLoss != ref.History[e].TrainLoss {
			same = false
		}
	}
	if same {
		t.Fatal("F16 and F32 trajectories agree bitwise — the precision switch is not reaching the kernels")
	}
}

// TestF16AccuracyParity: mixed precision must not cost accuracy on the
// synthetic task — the paper's observation that half-storage training with
// float32 masters matches full precision.
func TestF16AccuracyParity(t *testing.T) {
	ds := tinyDataset()
	run := func(p tensor.Precision) *Result {
		res, err := Train(Config{
			Model: mlpFactory(4), Batch: 32, Epochs: 8, Method: BaselineSGD,
			BaseLR: 0.1, Seed: 1, Precision: p,
		}, ds)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full, half := run(tensor.F32), run(tensor.F16)
	if half.Diverged {
		t.Fatal("F16 run diverged")
	}
	if half.TestAcc < full.TestAcc-0.05 {
		t.Fatalf("F16 accuracy %v trails F32 accuracy %v by more than 5 points", half.TestAcc, full.TestAcc)
	}
}

// TestLossScaleOutOfRangeRefused: an initial loss scale the scaler cannot
// start from is refused by Validate with the scaler's own error, and Train
// returns it instead of panicking inside the run.
func TestLossScaleOutOfRangeRefused(t *testing.T) {
	ds := tinyDataset()
	for _, scale := range []float64{-4, 1e-30, 1e9, math.NaN()} {
		cfg := Config{Model: mlpFactory(4), Batch: 32, Epochs: 1, Seed: 1, Precision: tensor.F16, LossScale: scale}
		want := opt.CheckLossScale(scale)
		if want == nil {
			t.Fatalf("opt.CheckLossScale(%v) accepted it", scale)
		}
		if err := cfg.Validate(); err == nil || err.Error() != want.Error() {
			t.Errorf("LossScale %v: Validate = %v, want %v", scale, err, want)
		}
		if res, err := Train(cfg, ds); err == nil || res != nil {
			t.Errorf("LossScale %v: Train returned (%v, %v), want an error", scale, res, err)
		}
	}
}

// TestF16OverflowRecovery forces overflow with an absurd initial loss scale:
// the scaled seed gradients exceed binary16 range, the scaler must skip
// those steps and halve until training proceeds, and the run still learns.
func TestF16OverflowRecovery(t *testing.T) {
	ds := tinyDataset()
	res, err := Train(Config{
		Model: mlpFactory(4), Batch: 32, Epochs: 8, Method: BaselineSGD,
		BaseLR: 0.1, Seed: 1, Precision: tensor.F16, LossScale: 1 << 24,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged {
		t.Fatal("run diverged instead of recovering from overflow")
	}
	if res.Scale.Overflows == 0 {
		t.Fatalf("scale 2^24 caused no overflows — the overflow path is dead: %+v", res.Scale)
	}
	if res.Scale.Scale >= 1<<24 {
		t.Fatalf("scale did not back off: %+v", res.Scale)
	}
	if res.TestAcc < 0.8 {
		t.Fatalf("accuracy %v after recovery, want >= 0.8", res.TestAcc)
	}
	// And the recovery itself is deterministic: a second identical run
	// reproduces the trajectory and the scaler counters exactly.
	res2, err := Train(Config{
		Model: mlpFactory(4), Batch: 32, Epochs: 8, Method: BaselineSGD,
		BaseLR: 0.1, Seed: 1, Precision: tensor.F16, LossScale: 1 << 24,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Scale != res.Scale || res2.FinalLoss != res.FinalLoss {
		t.Fatalf("overflow recovery not deterministic: %+v vs %+v", res2.Scale, res.Scale)
	}
}
