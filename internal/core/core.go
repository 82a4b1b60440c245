// Package core is the paper's primary contribution as a reusable engine:
// large-batch synchronous data-parallel training with the LARS optimizer,
// gradual warmup and polynomial learning-rate decay, under a fixed epoch
// budget.
//
// The three training recipes the paper compares are first-class here:
//
//   - BaselineSGD        — momentum SGD at the reference batch size,
//   - LinearScalingWarmup — Goyal et al.'s large-batch recipe (the "without
//     LARS" curves of Figure 4 and the failures of Table 5),
//   - LARSWarmup          — the paper's recipe (Table 7, Figure 4).
//
// A Trainer couples a model factory, the dist engine, the optimizer, the
// schedule and the dataset into one reproducible run that records per-epoch
// metrics, detects divergence (the paper's 0.1%-accuracy rows), and reports
// communication statistics.
package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Method selects the training recipe.
type Method int

// Recipe choices.
const (
	// BaselineSGD is momentum SGD with the poly schedule at the base rate —
	// the paper's small-batch reference runs.
	BaselineSGD Method = iota
	// LinearScalingWarmup scales the base rate linearly with the batch size
	// and ramps it up over the warmup epochs (Goyal et al. 2017).
	LinearScalingWarmup
	// LARSWarmup adds Layer-wise Adaptive Rate Scaling on top of linear
	// scaling and warmup — the paper's recipe.
	LARSWarmup
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case BaselineSGD:
		return "sgd"
	case LinearScalingWarmup:
		return "linear+warmup"
	case LARSWarmup:
		return "lars+warmup"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ParseMethod reads a recipe name: a flag spelling ("sgd", "linear",
// "lars") or the String form ("linear+warmup", "lars+warmup").
func ParseMethod(name string) (Method, error) {
	switch name {
	case "sgd":
		return BaselineSGD, nil
	case "linear", "linear+warmup":
		return LinearScalingWarmup, nil
	case "lars", "lars+warmup":
		return LARSWarmup, nil
	}
	return 0, fmt.Errorf("core: unknown method %q (want sgd | linear | lars)", name)
}

// Config describes one training run.
type Config struct {
	// Model builds one replica; called once per worker with distinct seeds
	// derived from Seed. All replicas are weight-synchronized before step 0.
	Model func(seed uint64) *nn.Network

	Workers int            // data-parallel worker count (default 1)
	Algo    dist.Algorithm // gradient reduction pattern (default Central)

	// Topology optionally arranges the workers into a two-tier node
	// hierarchy (dist.Hierarchy): gradients reduce intra-node first, node
	// leaders exchange across the cluster fabric, and Result.TierComm
	// reports the schedule split by fabric tier. Topology.Workers() must
	// equal Workers; Algo is ignored when set. The trajectory is
	// bit-identical to a flat run with the same Shards — the hierarchy
	// changes only the communication accounting.
	Topology *dist.Hierarchy

	// Shards is the number of logical gradient shards per global batch
	// (default Workers). The shard split — not the worker count — fixes
	// the numerical result: runs with equal Shards are bit-identical for
	// any Workers, which is how the multi-worker path reproduces the
	// single-worker trajectory exactly (pin Shards across both runs).
	Shards int
	// Bucket chunks gradient reduction into buckets of at most this many
	// float32 coordinates (0 = one bucket; see dist.Config.BucketElems).
	Bucket int
	// Overlap fires each bucket's reduction as soon as its gradients are
	// final on every shard, inside the backward pass, instead of after it
	// (dist.Config.Overlap). Values are bit-identical either way;
	// Result.Overlap reports how much of the schedule hid behind the
	// backward. Pair with Bucket — a single bucket cannot hide.
	Overlap bool
	// Reduction selects the gradient-reduction arithmetic
	// (dist.Config.Reduction): CanonicalF64 — the default float64
	// canonical-order sum — or PairwiseF32, the fixed-tree float32 kernel.
	// Either policy keeps runs bit-identical across Workers, topologies
	// and Overlap for a pinned shard split; the two policies round
	// differently from each other, so pin the policy too when comparing
	// trajectories.
	Reduction dist.Reduction
	// Codec optionally compresses gradient exchange payloads (lossy;
	// dist.FP16Codec, dist.NewOneBitCodec).
	Codec dist.Codec
	// Profile enables the per-step phase profiler (dist.Config.Profile):
	// Result.Profile then reports hot-loop wall time split into
	// gemm/im2col/reduce/codec/other buckets that sum exactly to the
	// profiled wall time. The profiler is process-global — run one
	// profiled trainer at a time.
	Profile bool
	// Faults optionally injects deterministic drops/stalls into the
	// reduction schedule; recovery is exact (see dist.FaultPlan). Workers
	// the plan marks permanently Dead need Elastic, or Train returns a
	// typed *dist.WorkerDeadError when the death bites.
	Faults *dist.FaultPlan
	// Elastic enables elastic membership (dist.Config.Elastic): a worker
	// whose recovery fails Elastic.EvictAfter consecutive steps is
	// evicted, its shards rebalance over the survivors, and the run
	// continues on P−1 workers — the preemptible-fleet scenario.
	// Result.Membership reports evictions, rebalances and the steps spent
	// at each world size. The trajectory of the surviving run is
	// bit-identical across topologies under the same plan and policy.
	Elastic *dist.Elastic

	Batch  int // global batch size B
	Epochs int // fixed epoch budget E (the paper's invariant)

	Method Method
	// BaseLR is the reference learning rate at BaseBatch. Linear scaling
	// uses BaseLR·Batch/BaseBatch as the target rate.
	BaseLR    float64
	BaseBatch int
	// WarmupEpochs ramps the rate linearly at the start (Table 7 uses up
	// to 13 epochs at batch 4096).
	WarmupEpochs float64
	PolyPower    float64 // default 2, the paper's poly policy
	Momentum     float64 // default 0.9
	WeightDecay  float64 // default 0.0005
	Trust        float64 // LARS trust coefficient, default 0.01 at micro scale

	// Augment enables the weak augmentation (±2 crop, flip) used by the
	// paper's "weak data augmentation" rows.
	Augment bool

	// Resolutions, when non-nil, is the per-epoch input-resolution schedule
	// (the progressive-resolution curriculum of the ENTR hypothesis, e.g.
	// parsed from "12x12@0-3,24x24@4+"). Each epoch's batches are
	// materialized at Resolutions.At(epoch) via data.Dataset.GatherAt —
	// resized with the deterministic kernel resampler before augmentation —
	// and the single engine dispatches the same resized batch to every
	// worker, so all replicas switch resolution in lockstep at epoch
	// boundaries. Shard/span logic is untouched (batches change shape, not
	// indices), which preserves the bit-identity contract across Workers,
	// Topology, Overlap and pinned Shards at both precisions. Evaluation
	// always runs at the dataset's native resolution. Requires a model
	// whose parameter count is resolution-independent (a GAP-headed
	// all-conv net such as models.MicroConvNetSpec or MicroResNetSpec).
	// Train does not see the architecture, so the check belongs to the
	// caller: cmd/train compares spec.Replay(h, w).ParamCount() with
	// spec.ParamCount() for every phase and refuses the run; a flatten→fc
	// model passed here unchecked fails its first off-native step with the
	// layer's shape error, returned by Train as a worker error. Nil trains
	// every epoch at native resolution — bit-identical to the pre-schedule
	// trainer.
	Resolutions *data.ResolutionSchedule

	// Precision selects the storage precision of the conv/fc GEMM operands
	// (tensor.F32, the default, or tensor.F16). Under F16 every replica
	// computes forward and backward through the binary16 kernels with
	// float32 accumulation while the optimizer, gradient reduction and
	// weight broadcast all stay on float32 masters, and Train drives
	// dynamic loss scaling (see LossScale). The F16 trajectory is
	// bit-identical across Workers, Topology, Overlap and pinned Shards —
	// the same decomposition-invariance contract as F32 — but differs from
	// the F32 trajectory (operands round through binary16).
	Precision tensor.Precision
	// LossScale is the initial dynamic loss scale used when Precision is
	// F16 (0 selects opt.DefaultLossScale, 2^16). The seed gradient is
	// multiplied by the scale before backward so small gradients survive
	// binary16 storage; after reduction the float32 master gradients are
	// unscaled exactly (the scale is a power of two) or, on Inf/NaN, the
	// step is skipped and the scale halves. Result.Scale reports the
	// scaler's activity.
	LossScale float64

	// SyncEvery, when > 1, switches the run to local SGD
	// (dist.Config.SyncEvery): every worker steps its own optimizer — the
	// same recipe as the master, LARS or momentum SGD per Method — on its
	// own shard gradients for SyncEvery steps, then the fleet averages
	// weights. Communication volume scales by exactly 1/SyncEvery (see
	// comm.ExpectedLocalSGDStats) at the cost of inter-sync weight drift;
	// Result.LocalSGD reports the step/round ledger. 0 or 1 is the
	// synchronous every-step path, bit-identical to a config without the
	// field. Local mode is incompatible with MicroBatch (gradient
	// accumulation assumes a single master optimizer), and F16 runs train
	// without dynamic loss scaling (the scaler's overflow protocol needs
	// the master-gradient barrier; LossScale is rejected).
	SyncEvery int
	// IntraSyncEvery, when > 0 (requires SyncEvery > 1 and Topology),
	// additionally averages weights inside each node every IntraSyncEvery
	// steps on the cheap intra fabric — the hierarchical local-SGD
	// schedule. Must divide SyncEvery so full boundaries subsume intra
	// ones. Result.TierComm attributes the extra rounds to the intra tier.
	IntraSyncEvery int

	// MicroBatch, when positive and smaller than Batch, processes each
	// global batch in sequential chunks of this size, accumulating
	// gradients before the optimizer step — gradient accumulation, the
	// same memory-driven micro-batching the cluster simulator models for
	// Table 9's B=8192 single-DGX-1 row. The optimizer trajectory matches
	// the single-pass batch up to float32 summation order (batch-norm
	// statistics are per-chunk, as on real hardware).
	MicroBatch int

	Seed uint64
	// EvalEveryEpochs controls how often test accuracy is measured
	// (always at the final epoch). 0 means every epoch.
	EvalEveryEpochs int
	// MaxLoss aborts the run as diverged when the training loss exceeds
	// it (default 25).
	MaxLoss float64
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.Batch == 0 {
		c.Batch = 32
	}
	if c.Epochs == 0 {
		c.Epochs = 10
	}
	if c.BaseLR == 0 {
		c.BaseLR = 0.05
	}
	if c.BaseBatch == 0 {
		c.BaseBatch = 32
	}
	if c.PolyPower == 0 {
		c.PolyPower = 2
	}
	if c.Momentum == 0 {
		c.Momentum = 0.9
	}
	if c.WeightDecay == 0 {
		c.WeightDecay = 0.0005
	}
	if c.Trust == 0 {
		c.Trust = 0.01
	}
	if c.EvalEveryEpochs == 0 {
		c.EvalEveryEpochs = 1
	}
	if c.MaxLoss == 0 {
		c.MaxLoss = 25
	}
	return c
}

// TargetLR returns the post-warmup learning rate implied by the recipe.
func (c Config) TargetLR() float64 {
	switch c.Method {
	case BaselineSGD:
		return c.BaseLR
	default:
		return opt.LinearScalingRule(c.BaseLR, c.BaseBatch, c.Batch)
	}
}

// EpochStats records one epoch of training.
type EpochStats struct {
	Epoch     int
	TrainLoss float64
	TestAcc   float64 // NaN when not evaluated this epoch
	LR        float64 // rate at the first step of the epoch
	// ResH, ResW record the input resolution the epoch trained at (the
	// dataset's native size unless Config.Resolutions scheduled another).
	ResH, ResW int
}

// Result is the outcome of one run.
type Result struct {
	Config    Config
	History   []EpochStats
	FinalLoss float64
	TestAcc   float64 // final top-1 test accuracy
	BestAcc   float64 // peak test accuracy over the run (the paper reports peak)
	Diverged  bool
	// Iterations counts optimizer steps — one per global batch, E·n/B for a
	// run that completes (a batch processed in MicroBatch chunks is one).
	Iterations int64
	Wall       time.Duration
	// Report is the engine's ledger of the run, taken whole: Comm (the
	// aggregate schedule), TierComm (its split by fabric tier when
	// Config.Topology arranged the workers hierarchically; zero for flat
	// runs), Overlap (rounds and bytes hidden behind the backward pass
	// versus exposed at the step barrier; everything is exposed unless
	// Config.Overlap was set), LocalSGD (local steps, full and intra-node
	// averaging rounds; zero unless Config.SyncEvery > 1), Membership
	// (evictions, joins, rebalanced shards and resync bytes, steps at each
	// world size) and Profile (hot-loop wall time by phase, summing exactly
	// to Profile.WallNS; zero unless Config.Profile was set).
	dist.Report
	// Scale reports the dynamic loss scaler's final scale and its
	// overflow/growth counters. Zero unless the run trained under
	// Config.Precision == tensor.F16 (or an explicit Config.LossScale).
	Scale opt.ScaleStats
}

// engineConfig is the dist.Config the run's engine is built with.
func (c Config) engineConfig() dist.Config {
	return dist.Config{
		Algo: c.Algo, Topology: c.Topology, Shards: c.Shards, BucketElems: c.Bucket,
		Overlap: c.Overlap, Reduction: c.Reduction, Codec: c.Codec,
		Faults: c.Faults, Elastic: c.Elastic, Profile: c.Profile,
		SyncEvery: c.SyncEvery, IntraSyncEvery: c.IntraSyncEvery,
	}
}

// micro reports whether each global batch is processed in MicroBatch chunks.
func (c Config) micro() bool { return c.MicroBatch > 0 && c.MicroBatch < c.Batch }

// Validate reports why the configuration (after defaults) cannot be
// trained, or nil: the trainer's own requirements, then the engine's
// (dist.Config.Validate).
func (c Config) Validate() error {
	c = c.withDefaults()
	switch {
	case c.Model == nil:
		return errors.New("core: Config.Model is required")
	case c.Workers < 1 || c.Batch < 1 || c.Epochs < 1:
		return fmt.Errorf("core: Workers = %d, Batch = %d, Epochs = %d: all three must be positive", c.Workers, c.Batch, c.Epochs)
	case c.SyncEvery > 1 && c.micro():
		return errors.New("core: MicroBatch is incompatible with SyncEvery > 1 (gradient accumulation assumes a single master optimizer)")
	case c.SyncEvery > 1 && c.LossScale > 0:
		return errors.New("core: LossScale is incompatible with SyncEvery > 1 (local mode trains unscaled)")
	}
	if err := opt.CheckLossScale(c.LossScale); err != nil {
		return err
	}
	if err := c.engineConfig().Validate(c.Workers); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// accumulating returns the gradient half of a micro-batched step: it leaves
// the batch-mean gradient in the master's parameter gradients by chunking
// the batch through microBatch-sized pieces, each chunk's reduced gradient
// weighted by its share of the batch.
func accumulating(engine *dist.Engine, microBatch int) func(*tensor.Tensor, []int, float64) (float64, error) {
	masterParams := engine.Master().Params()
	accum := make([]*tensor.Tensor, len(masterParams))
	for i, p := range masterParams {
		accum[i] = tensor.New(p.W.Shape...)
	}
	return func(x *tensor.Tensor, labels []int, _ float64) (float64, error) {
		for _, a := range accum {
			a.Zero()
		}
		imLen := x.Numel() / x.Shape[0]
		b := x.Shape[0]
		var total float64
		for lo := 0; lo < b; lo += microBatch {
			hi := lo + microBatch
			if hi > b {
				hi = b
			}
			shape := append([]int{hi - lo}, x.Shape[1:]...)
			chunk := tensor.FromSlice(x.Data[lo*imLen:hi*imLen], shape...)
			loss, err := engine.ComputeGradient(chunk, labels[lo:hi])
			if err != nil {
				return 0, err
			}
			w := float32(hi-lo) / float32(b)
			total += loss * float64(w)
			for i, p := range masterParams {
				accum[i].Axpy(w, p.G)
			}
		}
		for i, p := range masterParams {
			p.G.CopyFrom(accum[i])
		}
		return total, nil
	}
}

// Train runs the configured recipe on the dataset and returns the result.
// It returns an error for a configuration that cannot run (Config.Validate),
// a batch larger than the training set, and infrastructure failures (worker
// panics, an unrecoverable dead worker); divergence is reported in
// Result.Diverged, matching how the paper reports diverged runs as
// 0.1%-accuracy rows rather than aborted experiments.
func Train(cfg Config, ds *data.Synth) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	local := cfg.SyncEvery > 1
	start := time.Now()

	replicas := make([]*nn.Network, cfg.Workers)
	for i := range replicas {
		replicas[i] = cfg.Model(cfg.Seed + uint64(i)*7919)
		if cfg.Precision != tensor.F32 {
			replicas[i].SetPrecision(cfg.Precision)
		}
	}
	engine := dist.NewEngine(cfg.engineConfig(), replicas)
	defer engine.Close()

	// newStepper builds one instance of the run's optimizer recipe over the
	// given parameters: the master's in synchronous mode, one per replica
	// in local mode (each worker steps privately between weight averages).
	newStepper := func(params []*nn.Param) dist.Stepper {
		switch cfg.Method {
		case LARSWarmup:
			return opt.NewLARS(params, opt.LARSConfig{
				Momentum: cfg.Momentum, WeightDecay: cfg.WeightDecay, Trust: cfg.Trust,
			})
		default:
			return opt.NewSGD(params, opt.SGDConfig{
				Momentum: cfg.Momentum, WeightDecay: cfg.WeightDecay,
			})
		}
	}

	stepsPerEpoch := len(data.Batches(make([]int, ds.Train.Len()), cfg.Batch))
	if stepsPerEpoch == 0 {
		return nil, fmt.Errorf("core: batch %d exceeds training set %d", cfg.Batch, ds.Train.Len())
	}
	totalSteps := stepsPerEpoch * cfg.Epochs
	var sched opt.Schedule = opt.Poly{Base: cfg.TargetLR(), Power: cfg.PolyPower}
	if cfg.Method != BaselineSGD && cfg.WarmupEpochs > 0 {
		sched = opt.Warmup{Inner: sched, WarmupSteps: int(cfg.WarmupEpochs * float64(stepsPerEpoch))}
	}

	var aug *data.Augmenter
	if cfg.Augment {
		aug = data.NewAugmenter(2, true, rng.New(cfg.Seed^0xa5a5a5a5))
	}

	// The run's step is chosen once — local, every-step or accumulating —
	// as two halves around the divergence test: gradient leaves the
	// batch-mean loss (and, in the synchronous modes, the batch-mean
	// gradient in the master's parameter gradients); update turns that
	// gradient into the next synchronized weights. Each is called once per
	// global batch.
	var gradient func(x *tensor.Tensor, labels []int, lr float64) (float64, error)
	update := func(float64) error { return nil }
	var scaler *opt.LossScaler
	if local {
		// One local-SGD step: shard gradients stay on their workers, each
		// steps its private optimizer, and the engine averages weights at
		// window boundaries — nothing is left for update. Local mode trains
		// F16 unscaled: the scaler's overflow protocol (inspect master
		// gradients, skip the shared step) has no master gradient to
		// inspect when every worker steps privately.
		steppers := make([]dist.Stepper, len(replicas))
		for w := range steppers {
			steppers[w] = newStepper(replicas[w].Params())
		}
		engine.SetLocalSteppers(steppers)
		gradient = engine.LocalStep
	} else {
		// Dynamic loss scaling rides the F16 path (or an explicit
		// LossScale): the engine scales the seed gradient before backward;
		// after reduction the scaler unscales the float32 master gradients
		// exactly, or skips the step and halves on overflow.
		if cfg.Precision == tensor.F16 || cfg.LossScale > 0 {
			scaler = opt.NewLossScaler(cfg.LossScale, 0)
		}
		masterParams := engine.Master().Params()
		optimizer := newStepper(masterParams)
		update = func(lr float64) error {
			if scaler != nil && !scaler.Update(masterParams) {
				// Overflowed gradients: skip the optimizer step and the
				// weight broadcast (weights are unchanged, so the replicas
				// are still in sync) and retry at the halved scale. The
				// schedule still advances — a skipped step consumes its
				// slot, as on real mixed-precision trainers.
				return nil
			}
			optimizer.Step(lr)
			return engine.BroadcastWeights()
		}
		gradient = func(x *tensor.Tensor, labels []int, _ float64) (float64, error) {
			return engine.ComputeGradient(x, labels)
		}
		if cfg.micro() {
			gradient = accumulating(engine, cfg.MicroBatch)
		}
	}

	res := &Result{Config: cfg, TestAcc: math.NaN()}
	_, nativeH, nativeW := ds.Train.ImageShape()
	step := 0
	for epoch := 0; epoch < cfg.Epochs && !res.Diverged; epoch++ {
		resH, resW := nativeH, nativeW
		if cfg.Resolutions != nil {
			resH, resW = cfg.Resolutions.At(epoch)
		}
		perm := ds.Train.Shuffled(cfg.Seed, epoch)
		var epochLoss float64
		var epochSteps int
		lrAtStart := sched.LR(step, totalSteps)
		for _, idx := range data.Batches(perm, cfg.Batch) {
			// At the native resolution GatherAt is exactly Gather, so
			// nil-schedule runs reproduce the pre-schedule trainer
			// bit-for-bit.
			x, labels, err := ds.Train.GatherAt(idx, resH, resW)
			if err != nil {
				return nil, err
			}
			if aug != nil {
				aug.Apply(x)
			}
			lr := sched.LR(step, totalSteps)
			if scaler != nil {
				engine.SetLossScale(scaler.Scale())
			}
			loss, err := gradient(x, labels, lr)
			if err != nil {
				return nil, err
			}
			res.Iterations++
			epochLoss += loss
			epochSteps++
			if math.IsNaN(loss) || math.IsInf(loss, 0) || loss > cfg.MaxLoss {
				res.Diverged = true
				break
			}
			if err := update(lr); err != nil {
				return nil, err
			}
			step++
		}
		stats := EpochStats{
			Epoch:     epoch,
			TrainLoss: epochLoss / float64(epochSteps),
			TestAcc:   math.NaN(),
			LR:        lrAtStart,
			ResH:      resH,
			ResW:      resW,
		}
		last := epoch == cfg.Epochs-1 || res.Diverged
		if last || epoch%cfg.EvalEveryEpochs == 0 {
			acc, err := engine.EvalAccuracy(ds.Test.Images, ds.Test.Labels, 256)
			if err != nil {
				return nil, err
			}
			stats.TestAcc = acc
			if stats.TestAcc > res.BestAcc {
				res.BestAcc = stats.TestAcc
			}
			res.TestAcc = stats.TestAcc
		}
		res.FinalLoss = stats.TrainLoss
		res.History = append(res.History, stats)
	}
	res.Report = engine.Report()
	if scaler != nil {
		res.Scale = scaler.Stats()
	}
	res.Wall = time.Since(start)
	return res, nil
}
