package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// workload is one set of inputs the benchmark runs: a model, a dataset and
// either a training recipe for core.Train or a pool and a request trace for
// serve.Pool.Run. Everything that depends on the seed is derived in
// dataset, trainConfig and trace; the program under test sees only those.
type workload struct {
	name string
	why  string

	micro     models.MicroConfig
	build     func(models.MicroConfig) *nn.Network
	macs      func(c models.MicroConfig, h, w int) int64 // forward multiply-accumulates per image at h×w
	precision tensor.Precision
	synth     data.SynthConfig

	// Training workloads: the recipe (Model and Seed are filled per seed)
	// and the accuracy a finished run must reach.
	serving  bool
	train    core.Config
	accFloor float64
	// singleWorkerBaseline adds the traced run's one-worker segment. It
	// needs a model without dropout, whose masks come from each replica's
	// own generator and so differ between one worker and two.
	singleWorkerBaseline bool

	// Serving workloads: the pool, the Poisson trace and the shorter trace
	// that warms every batch shape's scratch.
	pool         serve.Config
	requests     int
	warmRequests int
	meanGap      serve.Ticks

	// smoke marks the cut-down copy the smoke test runs (see shrunk).
	smoke bool
}

// effort is how often a run repeats what it measures: set-ups per run, to
// report a median; the least number of timed calls a run's median rests on,
// whatever -seconds says; alternations of the traced run's paired walls;
// samples of each stand-alone probe (21 is the least that supports a median
// under supportedQuantile).
type effort struct{ setups, minRepeats, pairs, probeReps int }

func (w workload) effort() effort {
	if w.smoke {
		return effort{setups: 1, minRepeats: 2, pairs: 1, probeReps: 2}
	}
	return effort{setups: 5, minRepeats: 3, pairs: 2, probeReps: 21}
}

// Geometry shared by every workload: SynthImageNet, 8 classes of 3×24×24.
var geom = models.MicroConfig{Classes: 8, InC: 3, InH: 24, InW: 24, Width: 8}

func synth(trainSize int) data.SynthConfig {
	return data.SynthConfig{
		Classes: geom.Classes, TrainSize: trainSize, TestSize: 512,
		C: geom.InC, H: geom.InH, W: geom.InW,
		Noise: 0.35, MaxShift: 4, Flip: true,
	}
}

// recipe is the part of core.Config every training workload shares: two
// workers on a ring, the paper's LARS recipe, evaluation at the end only
// (core.Train also evaluates after epoch 0). Fields core would default are
// spelled out so the mirror loop needs no copy of core's defaults.
func recipe(batch, epochs int) core.Config {
	return core.Config{
		Workers: 2, Algo: dist.Ring,
		Batch: batch, Epochs: epochs,
		Method: core.LARSWarmup, BaseLR: 0.05, BaseBatch: 32,
		PolyPower: 2, Momentum: 0.9, WeightDecay: 0.0005, Trust: 0.05,
		EvalEveryEpochs: 1 << 20, MaxLoss: 25,
	}
}

func mustSchedule(s string) *data.ResolutionSchedule {
	rs, err := data.ParseResolutionSchedule(s)
	if err != nil {
		panic(err)
	}
	return rs
}

func wide(width int) models.MicroConfig {
	c := geom
	c.Width = width
	return c
}

func alexNetMACs(c models.MicroConfig, h, w int) int64 {
	return models.MicroAlexNetSpec(c).At(h, w).MACsPerImage()
}

func convNetMACs(c models.MicroConfig, h, w int) int64 {
	return models.MicroConvNetSpec(c).At(h, w).MACsPerImage()
}

// mlpMACs counts models.NewMLP's three linear layers; models has no spec
// for it.
func mlpMACs(c models.MicroConfig, h, w int) int64 {
	in, hid := int64(c.InC*h*w), int64(8*c.Width)
	return in*hid + hid*hid + hid*int64(c.Classes)
}

var servePool = serve.Config{
	MaxBatch: 16, MaxDelay: 400, Replicas: 2,
	Service: serve.ServiceModel{Base: 100, PerImage: 25},
}

// workloads lists the five workloads in the order BENCHMARK.json names them.
// Sizes are the issue's cut until one timed call takes 2.5–4.5 s on the
// reference host, so that a run of 12 s holds three to five of them and 114
// driver runs fit their time cap even in one of the host's slow phases;
// every training call still makes at least 100 optimizer steps.
func workloads() []workload {
	conv := workload{
		name:  "train_conv_f32",
		why:   "compute-bound conv training: nearly all of the step is gemm+im2col inside ComputeGradient, so kernel/tensor/nn f32 wins show here and comm or optimizer wins must not",
		micro: geom, build: models.NewMicroAlexNet, macs: alexNetMACs,
		synth: synth(2176), train: recipe(64, 3), accFloor: 0.85,
	}

	fc := workload{
		name:  "train_fc_comm",
		why:   "low comp/comm ratio (1.15M-parameter MLP, batch 16): fp16 codec, 18 overlapped buckets, ring reduce, broadcast and LARS step carry the step; conv kernels do nothing",
		micro: wide(64), build: models.NewMLP, macs: mlpMACs,
		synth: synth(1792), train: recipe(16, 1), accFloor: 0.70,
	}
	fc.train.Bucket, fc.train.Overlap, fc.train.Codec = 65536, true, dist.FP16Codec{}
	fc.train.BaseLR, fc.train.BaseBatch, fc.train.WarmupEpochs = 0.02, 16, 0.5
	fc.singleWorkerBaseline = true

	prog := workload{
		name:  "train_conv_f16_prog",
		why:   "the same nn/tensor/kernel layers on binary16 operands with the loss scaler, two input resolutions (12x12 then 24x24) through the resize kernel, and the augmenter: the f16 training rung",
		micro: geom, build: models.NewMicroConvNet, macs: convNetMACs, precision: tensor.F16,
		synth: synth(1024), train: recipe(32, 4), accFloor: 0.45,
	}
	prog.train.Precision, prog.train.Augment = tensor.F16, true
	prog.train.Resolutions = mustSchedule("12x12@0-1,24x24@2+")
	// The shared recipe moves this net's weights by 0.25 % of their norm a
	// step and decays that quadratically, which leaves it underfit after 128
	// steps and its accuracy anywhere from 0.26 to 0.63 depending on the seed.
	// Four times the trust coefficient behind one epoch of warm-up, decaying
	// linearly, gives 0.60 to 1.00 over 170 seeds: a floor can hold.
	prog.train.BaseLR, prog.train.Trust, prog.train.WarmupEpochs, prog.train.PolyPower = 0.07, 0.2, 1, 1

	s32 := workload{
		name:    "serve_f32",
		why:     "eval-mode forwards of frozen checkpointed weights at batch sizes 1..16 changing call to call: the real-wall serve.Pool.Run figure, and the bypass workload for f16 serving work",
		serving: true,
		micro:   geom, build: models.NewMicroAlexNet, macs: alexNetMACs,
		synth: synth(64), pool: servePool, requests: 6000, warmRequests: 2000, meanGap: 80,
	}

	s16 := s32
	s16.name = "serve_f16"
	s16.why = "serve_f32 under Pool.SetPrecision(F16): per-call weight repacking with frozen weights is the known loss; the f16 serving rung"
	s16.precision = tensor.F16

	return []workload{conv, fc, prog, s32, s16}
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// shrunk is the workload at about a sixtieth of its size — fewer images and
// requests, an eighth of the batch, the MLP at width 8 — with the least
// repeats (see effort). It drops the accuracy floor and the mirror-gap limit,
// which a run that short cannot meet; every other check stays on. The smoke
// test runs the workloads this way.
func (w workload) shrunk() workload {
	w.train.Batch = max(w.train.Batch/8, 8)
	w.synth.TrainSize = max(w.synth.TrainSize/64, 32)
	w.synth.TestSize = 32
	w.micro.Width = 8
	w.requests /= 64
	w.warmRequests /= 64
	w.accFloor = 0
	w.smoke = true
	return w
}

// dataset generates the workload's images from the seed.
func (w workload) dataset(seed uint64) *data.Synth {
	cfg := w.synth
	cfg.Seed = seed
	return data.GenerateSynth(cfg)
}

// model builds one network at the workload's width with the given
// initialization seed, in float32; callers set the precision.
func (w workload) model(seed uint64) *nn.Network {
	c := w.micro
	c.Seed = seed
	return w.build(c)
}

// trainConfig is the complete recipe handed to core.Train for one seed.
func (w workload) trainConfig(seed uint64) core.Config {
	cfg := w.train
	cfg.Model = w.model
	cfg.Seed = seed
	return cfg
}

// trace is the open-loop Poisson arrival sequence of n requests.
func (w workload) trace(n int, seed uint64) serve.Trace {
	return serve.PoissonTrace(n, w.meanGap, w.synth.TestSize, seed)
}

// stepsPerEpoch is the number of full batches in one epoch.
func (w workload) stepsPerEpoch() int { return w.synth.TrainSize / w.train.Batch }

// items is the count of images trained or requests served by one timed call.
func (w workload) items() int {
	if w.serving {
		return w.requests
	}
	return w.train.Epochs * w.stepsPerEpoch() * w.train.Batch
}

// flopsPerItem is the operation count of one item: a forward pass for a
// served request, three forward passes' worth (models.TrainFLOPsPerImage)
// for a trained image, averaged over the epochs' resolutions.
func (w workload) flopsPerItem() float64 {
	if w.serving {
		return 2 * float64(w.macs(w.micro, w.micro.InH, w.micro.InW))
	}
	var macs int64
	for e := 0; e < w.train.Epochs; e++ {
		h, wd := w.micro.InH, w.micro.InW
		if rs := w.train.Resolutions; rs != nil {
			h, wd = rs.At(e)
		}
		macs += w.macs(w.micro, h, wd)
	}
	return 3 * 2 * float64(macs) / float64(w.train.Epochs)
}
