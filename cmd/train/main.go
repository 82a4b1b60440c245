// Command train runs one large-batch training experiment on SynthImageNet
// and prints per-epoch metrics. It exposes every knob of the paper's recipe
// (model, batch, epoch budget, method, warmup, LARS trust) and of the
// synchronous data-parallel engine underneath it.
//
// Each flag fills one field of core.Config, and that field's comment is the
// reference for what it does and which bit-identity contract it keeps:
//
//	-method -base-lr -base-batch -warmup -trust -wd     Method, BaseLR, BaseBatch, WarmupEpochs, Trust, WeightDecay
//	-workers -algo -per-node -intra-algo                Workers, Algo, Topology (dist.Hierarchy)
//	-shards -bucket -overlap -codec                     Shards, Bucket, Overlap, Codec
//	-reduction -profile                                 Reduction, Profile
//	-precision -loss-scale                              Precision, LossScale
//	-resolutions                                        Resolutions (data.ParseResolutionSchedule)
//	-sync-every -intra-sync-every                       SyncEvery, IntraSyncEvery
//	-fault-drop -fault-stall -fault-dead -fault-join    Faults (dist.FaultPlan)
//	-elastic -evict-after                               Elastic (dist.Elastic)
//
// core.Config.Validate decides which combinations can run; a refused one is
// a single "train:" line. What only the command line has:
//
// -model names a micro model of internal/models' table (models.Micro), sized
// by -width, -classes and -image-size; a size the recipe cannot be built at
// is refused before anything is allocated.
//
// -resolutions takes comma-separated phases of "HxW@epochs" with inclusive
// epoch ranges: "12x12@0-4,24x24@5+" trains epochs 0–4 at 12x12 and every
// epoch from 5 on at 24x24 (a bare "HxW" pins the whole run). The model's
// weight count must be the same at every phase's resolution — computed from
// its spec, so the GAP-headed micro-convnet and micro-resnet pass while
// micro-alexnet and mlp, whose classifier bakes in the input size, are
// refused. The per-epoch report gains a res column.
//
// -fault-dead and -fault-join take comma-separated "worker@step" pairs
// (dist.ParseWorkerSteps): "3@40" kills worker 3 from step 40 on, or admits
// it at the step-60 boundary for "-fault-join 3@60"; a worker in both
// rejoins after its outage.
//
// The final report adds one line per engaged feature: tiers (-per-node),
// localsgd (-sync-every), overlap, membership (-elastic), profile and
// precision (-precision f16).
//
// # Local SGD: a worked comm-bound example
//
// Micro-alexnet at width 8 carries ~0.18M parameters, so one ring round at
// P=4 moves ~2.6 MB through the engine
// (2(P−1)/P reduce + broadcast legs per worker). At batch 256 a step
// computes in a few ms, so on a slow fabric the allreduce dominates the
// step; -sync-every 8 cuts the wire volume 8x and turns the run
// compute-bound while the loss trajectory stays within the drift budget
// the LocalSGD study tables (EXPERIMENTS.md) quantify:
//
//	train -model micro-alexnet -batch 256 -epochs 15 -method lars \
//	      -warmup 2 -workers 4 -algo ring -sync-every 8
//
// The hierarchical schedule on a simulated two-node cluster — intra-node
// averages every 2 steps on the cheap fabric, full averages every 8:
//
//	train -model micro-alexnet -batch 256 -epochs 15 -method lars \
//	      -warmup 2 -workers 4 -per-node 2 -algo tree \
//	      -sync-every 8 -intra-sync-every 2
//
// # Worked examples
//
// The paper's recipe at batch 1024 on 4 workers with ring allreduce,
// reporting per-epoch loss/accuracy and the communication counters:
//
//	train -model micro-alexnet -batch 1024 -epochs 15 -method lars \
//	      -warmup 2 -workers 4 -algo ring
//
// The same run on a simulated two-node cluster (2 workers per node, ring
// inside the node, tree across node leaders), with fp16 wire compression
// and a 1% straggler rate — the final line adds per-tier message/byte/round
// counters for the intra and inter fabrics:
//
//	train -model micro-alexnet -batch 1024 -epochs 15 -method lars \
//	      -warmup 2 -workers 4 -per-node 2 -intra-algo ring -algo tree \
//	      -codec fp16 -fault-stall 0.01
//
// The paper's recipe with gradient reduction overlapped with the backward
// pass, 4096-coordinate buckets firing as their layers' gradients land:
//
//	train -model micro-alexnet -batch 1024 -epochs 15 -method lars \
//	      -warmup 2 -workers 4 -algo ring -bucket 4096 -overlap
//
// A preemptible fleet: worker 3 is reclaimed at step 40, declared dead
// after 3 missed recoveries, and evicted; the run finishes on the three
// survivors and reports the world-size timeline:
//
//	train -model micro-alexnet -batch 1024 -epochs 15 -method lars \
//	      -warmup 2 -workers 4 -algo ring -fault-dead 3@40 \
//	      -elastic -evict-after 3
//
// The same preemption with the capacity coming back: worker 3 is reclaimed
// at step 40, evicted, then readmitted at the step-60 boundary — the
// membership line reports one eviction, one join and the "-3@43 +3@60"
// event timeline, and the run finishes back at full strength:
//
//	train -model micro-alexnet -batch 1024 -epochs 15 -method lars \
//	      -warmup 2 -workers 4 -algo ring -fault-dead 3@40 \
//	      -fault-join 3@60 -elastic -evict-after 3
//
// The paper's recipe on the float32 pairwise reduction tree, with the hot
// loop profiled — the final lines report the phase shares and pin the run
// to the pairwise-f32 summation tree (bit-identical for any -workers at
// this -shards split; a precision contrast, not a speed-up: the canonical
// default is the faster kernel as measured):
//
//	train -model micro-alexnet -batch 1024 -epochs 15 -method lars \
//	      -warmup 2 -workers 4 -shards 4 -algo ring \
//	      -reduction pairwise -profile
//
// The paper's recipe on the binary16 compute path with the hot loop
// profiled — the profile line's convert share is the packing overhead
// (binary16 is a storage format here: the gemm phase runs the f32 run's
// float32 arithmetic plus a decode, so it cannot come out faster), and the
// closing precision line reports the dynamic loss scaler's end state (scale,
// skipped steps, growths):
//
//	train -model micro-alexnet -batch 1024 -epochs 15 -method lars \
//	      -warmup 2 -workers 4 -shards 4 -algo ring \
//	      -precision f16 -profile
//
// The ENTR curriculum on the GAP-headed conv net: the first five epochs
// train at 4/9-area 16x16 inputs (~2.25x fewer FLOPs per image per conv
// layer), the rest at the native 24x24 — same epoch budget, less wall
// time, and still bit-identical for any -workers at this -shards split:
//
//	train -model micro-convnet -batch 1024 -epochs 15 -method lars \
//	      -warmup 2 -workers 4 -shards 4 -algo ring \
//	      -resolutions 16x16@0-4,24x24@5+
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/tensor"
)

// errDiverged ends a run whose loss left the finite range: the report is
// printed, the exit status is 2.
var errDiverged = errors.New("diverged")

func main() {
	log.SetFlags(0)
	log.SetPrefix("train: ")
	if err := run(os.Args[1:], os.Stdout); errors.Is(err, errDiverged) {
		os.Exit(2)
	} else if err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run is the whole command: it parses args, trains, and writes the report
// to w. A flag value it cannot use is an error returned before anything is
// printed; -h is flag.ErrHelp, after the flag package printed the usage.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	var cfg core.Config // the flags that are a Config field verbatim are bound to it
	fs.IntVar(&cfg.Batch, "batch", 32, "global batch size")
	fs.IntVar(&cfg.Epochs, "epochs", 15, "fixed epoch budget")
	fs.Float64Var(&cfg.BaseLR, "base-lr", 0.05, "learning rate at the base batch")
	fs.IntVar(&cfg.BaseBatch, "base-batch", 32, "reference batch for linear scaling")
	fs.Float64Var(&cfg.WarmupEpochs, "warmup", 2, "warmup epochs (linear/lars)")
	fs.Float64Var(&cfg.Trust, "trust", 0.01, "LARS trust coefficient")
	fs.Float64Var(&cfg.WeightDecay, "wd", 0.0005, "weight decay")
	fs.IntVar(&cfg.Workers, "workers", 2, "data-parallel workers")
	fs.IntVar(&cfg.Shards, "shards", 0, "logical gradient shards (0 = one per worker; pin across runs for bit-identical results)")
	fs.IntVar(&cfg.Bucket, "bucket", 0, "gradient bucket size in float32 coords (0 = one bucket)")
	fs.BoolVar(&cfg.Overlap, "overlap", false, "fire bucket reductions inside the backward pass (bit-identical; adds hidden/exposed accounting)")
	fs.BoolVar(&cfg.Profile, "profile", false, "profile the hot loop per step and report gemm/im2col/convert/reduce/codec/other wall-time shares")
	fs.Float64Var(&cfg.LossScale, "loss-scale", 0, "initial dynamic loss scale under -precision f16 (0 = 2^16; rounded to a power of two)")
	fs.IntVar(&cfg.SyncEvery, "sync-every", 0, "local SGD period H: private optimizer steps between weight averages (0/1 = synchronous every-step path)")
	fs.IntVar(&cfg.IntraSyncEvery, "intra-sync-every", 0, "intra-node weight-average period Hi under -per-node (must divide -sync-every; 0 = off)")
	fs.BoolVar(&cfg.Augment, "augment", false, "enable weak data augmentation")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "experiment seed")
	var (
		modelName   = fs.String("model", "micro-alexnet", "model: "+strings.Join(models.MicroNames(), " | "))
		method      = fs.String("method", "lars", "recipe: sgd | linear | lars")
		algo        = fs.String("algo", "ring", "allreduce topology: central | tree | ring (cross-node tier when -per-node is set)")
		perNode     = fs.Int("per-node", 0, "workers per node for the two-tier hierarchical allreduce (0 = flat; must divide -workers)")
		intraAlgo   = fs.String("intra-algo", "ring", "within-node allreduce when -per-node is set: central | tree | ring")
		reduction   = fs.String("reduction", "canonical", "gradient reduction arithmetic: canonical (f64 canonical order) | pairwise (fixed-tree f32 kernel)")
		precision   = fs.String("precision", "f32", "compute precision: f32 | f16 (binary16 GEMM operands, float32 accumulation and masters)")
		codec       = fs.String("codec", "", "gradient payload codec: \"\" (raw) | fp16 | 1bit")
		dropRate    = fs.Float64("fault-drop", 0, "per-(step,worker) payload drop probability (deterministic, exact recovery)")
		stallRate   = fs.Float64("fault-stall", 0, "per-(step,worker) straggler probability")
		faultDead   = fs.String("fault-dead", "", "permanently kill workers: \"w@step\" pairs, comma-separated (e.g. \"3@40,2@60\")")
		faultJoin   = fs.String("fault-join", "", "admit workers at a step boundary: \"w@step\" pairs, comma-separated (requires -elastic; a worker also in -fault-dead rejoins after its outage)")
		elastic     = fs.Bool("elastic", false, "evict persistently dead workers and continue on the survivors (elastic membership)")
		evictAfter  = fs.Int("evict-after", 0, "consecutive failed recoveries before eviction (0 = default 3; needs -elastic)")
		resolutions = fs.String("resolutions", "", "per-epoch input-resolution schedule, e.g. \"12x12@0-4,24x24@5+\" (needs a model whose weight count does not depend on the input size)")
		width       = fs.Int("width", 8, "model base width")
		trainSize   = fs.Int("train-size", 4096, "synthetic training set size")
		classes     = fs.Int("classes", 8, "synthetic class count")
		imageSize   = fs.Int("image-size", 24, "synthetic image height/width")
		quiet       = fs.Bool("quiet", false, "print only the final summary line")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// core.Config reads a zero as "use the default"; on the command line
	// the defaults are the flags' own, so a zero is a mistake, not a request.
	for _, f := range []struct {
		name string
		v    int
	}{{"epochs", cfg.Epochs}, {"batch", cfg.Batch}, {"workers", cfg.Workers}, {"base-batch", cfg.BaseBatch}} {
		if f.v < 1 {
			return fmt.Errorf("-%s %d, want >= 1", f.name, f.v)
		}
	}

	var err error
	if cfg.Method, err = core.ParseMethod(*method); err != nil {
		return err
	}

	synCfg := data.DefaultSynthConfig()
	synCfg.TrainSize = *trainSize
	synCfg.Classes = *classes
	synCfg.H, synCfg.W = *imageSize, *imageSize
	if err := synCfg.Validate(); err != nil {
		return err
	}
	spec, err := models.Micro(*modelName, models.MicroConfig{Classes: *classes, InH: *imageSize, InW: *imageSize, Width: *width})
	if err != nil {
		return err
	}
	cfg.Model = spec.Factory()

	if cfg.Algo, err = dist.ParseAlgorithm(*algo); err != nil {
		return err
	}
	if *perNode > 0 {
		intra, err := dist.ParseAlgorithm(*intraAlgo)
		if err != nil {
			return err
		}
		cfg.Topology = &dist.Hierarchy{Nodes: cfg.Workers / *perNode, PerNode: *perNode, Intra: intra, Inter: cfg.Algo}
	}

	if cfg.Precision, err = tensor.ParsePrecision(*precision); err != nil {
		return err
	}
	if cfg.LossScale != 0 && cfg.Precision != tensor.F16 {
		return errors.New("-loss-scale needs -precision f16")
	}

	if *resolutions != "" {
		if cfg.Resolutions, err = data.ParseResolutionSchedule(*resolutions); err != nil {
			return err
		}
		for _, p := range cfg.Resolutions.Phases() {
			at, err := spec.Replay(p.H, p.W)
			if err != nil {
				return err
			}
			if at.ParamCount() != spec.ParamCount() {
				return fmt.Errorf("-resolutions needs a model whose weight count does not depend on the input size: %s has %d weights at %dx%d and %d at %dx%d (its classifier bakes in the input size)",
					*modelName, spec.ParamCount(), *imageSize, *imageSize, at.ParamCount(), p.H, p.W)
			}
		}
	}

	if cfg.Reduction, err = dist.ParseReduction(*reduction); err != nil {
		return err
	}

	if cfg.Codec, err = dist.ParseCodec(*codec); err != nil {
		return err
	}

	dead, err := dist.ParseWorkerSteps(*faultDead)
	if err != nil {
		return fmt.Errorf("-fault-dead: %w", err)
	}
	join, err := dist.ParseWorkerSteps(*faultJoin)
	if err != nil {
		return fmt.Errorf("-fault-join: %w", err)
	}
	if *dropRate != 0 || *stallRate != 0 || dead != nil || join != nil {
		cfg.Faults = &dist.FaultPlan{Seed: cfg.Seed, DropRate: *dropRate, StallRate: *stallRate, Dead: dead, Join: join}
	}
	if *elastic {
		cfg.Elastic = &dist.Elastic{EvictAfter: *evictAfter}
	} else if *evictAfter != 0 {
		return errors.New("-evict-after needs -elastic")
	}

	res, err := core.Train(cfg, data.GenerateSynth(synCfg))
	if err != nil {
		return err
	}
	cfg = res.Config // with the defaults Train ran under
	sched := cfg.Resolutions
	if !*quiet {
		fmt.Fprintf(w, "# %s batch=%d epochs=%d method=%v target-lr=%.4f workers=%d",
			*modelName, cfg.Batch, cfg.Epochs, cfg.Method, cfg.TargetLR(), cfg.Workers)
		if sched != nil {
			fmt.Fprintf(w, " resolutions=%s", sched)
		}
		fmt.Fprintln(w)
		if sched != nil {
			fmt.Fprintf(w, "%-6s %-8s %-10s %-8s %-8s\n", "epoch", "res", "loss", "test-acc", "lr")
		} else {
			fmt.Fprintf(w, "%-6s %-10s %-8s %-8s\n", "epoch", "loss", "test-acc", "lr")
		}
		for _, e := range res.History {
			acc := "-"
			if !math.IsNaN(e.TestAcc) {
				acc = fmt.Sprintf("%.4f", e.TestAcc)
			}
			if sched != nil {
				fmt.Fprintf(w, "%-6d %-8s %-10.4f %-8s %-8.4f\n",
					e.Epoch, fmt.Sprintf("%dx%d", e.ResH, e.ResW), e.TrainLoss, acc, e.LR)
			} else {
				fmt.Fprintf(w, "%-6d %-10.4f %-8s %-8.4f\n", e.Epoch, e.TrainLoss, acc, e.LR)
			}
		}
	}
	status := "ok"
	if res.Diverged {
		status = "DIVERGED"
	}
	fmt.Fprintf(w, "final: acc=%.4f best=%.4f loss=%.4f iters=%d wall=%s comm_msgs=%d comm_bytes=%d comm_rounds=%d retries=%d stalls=%d status=%s\n",
		res.TestAcc, res.BestAcc, res.FinalLoss, res.Iterations, res.Wall.Round(1e7),
		res.Comm.Messages, res.Comm.Bytes, res.Comm.Steps, res.Comm.Retries, res.Comm.Stalls, status)
	if topology := cfg.Topology; topology != nil {
		fmt.Fprintf(w, "tiers: topology=%v intra_msgs=%d intra_bytes=%d intra_rounds=%d inter_msgs=%d inter_bytes=%d inter_rounds=%d\n",
			*topology,
			res.TierComm.Intra.Messages, res.TierComm.Intra.Bytes, res.TierComm.Intra.Steps,
			res.TierComm.Inter.Messages, res.TierComm.Inter.Bytes, res.TierComm.Inter.Steps)
	}
	if cfg.SyncEvery > 1 {
		fmt.Fprintf(w, "localsgd: H=%d Hi=%d local_steps=%d sync_rounds=%d intra_rounds=%d\n",
			cfg.SyncEvery, cfg.IntraSyncEvery,
			res.LocalSGD.LocalSteps, res.LocalSGD.SyncRounds, res.LocalSGD.IntraRounds)
	}
	if cfg.Overlap {
		fmt.Fprintf(w, "overlap: hidden_rounds=%d exposed_rounds=%d hidden_bytes=%d exposed_bytes=%d hidden_frac=%.1f%%\n",
			res.Overlap.HiddenRounds, res.Overlap.ExposedRounds,
			res.Overlap.HiddenBytes, res.Overlap.ExposedBytes,
			100*res.Overlap.HiddenByteFrac())
	}
	if *elastic {
		fmt.Fprintf(w, "membership: evictions=%d joins=%d rebalanced_shards=%d resync_bytes=%d joined_bytes=%d world_timeline=%s events=%s\n",
			res.Membership.Evictions, res.Membership.Joins,
			res.Membership.RebalancedShards, res.Membership.RebalancedBytes,
			res.Membership.JoinedBytes, res.Membership.Timeline(),
			res.Membership.EventTimeline())
	}
	if cfg.Profile {
		fmt.Fprintf(w, "profile: %s\n", res.Profile)
	}
	if cfg.Precision == tensor.F16 {
		fmt.Fprintf(w, "precision: f16 loss_scale=%g overflows=%d growths=%d\n",
			res.Scale.Scale, res.Scale.Overflows, res.Scale.Growths)
	}
	if res.Diverged {
		return errDiverged
	}
	return nil
}
