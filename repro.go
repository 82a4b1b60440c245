// Package repro reproduces "ImageNet Training in Minutes" (You, Zhang,
// Hsieh, Demmel, Keutzer; ICPP 2018) — LARS-based large-batch training — as
// a pure-Go library built on the standard library only.
//
// The package is a curated facade over the implementation packages — the
// names the programs under examples/ use; commands and studies import the
// internal packages directly:
//
//	internal/kernel     GEMM, reduction, binary16 and resize inner loops
//	internal/par        data-parallel loop helpers
//	internal/rng        deterministic SplitMix64 streams
//	internal/tensor     float32 tensors, GEMM, im2col
//	internal/nn         layers with exact gradients (conv incl. grouped, BN,
//	                    LRN, pooling, residual blocks, softmax loss)
//	internal/models     AlexNet(+BN), ResNet-18/34/50 specs + trainable nets
//	internal/data       SynthImageNet, batch spans, augmentation, resolution
//	                    schedules
//	internal/opt        momentum SGD and LARS (one update loop), poly decay
//	                    with warmup, linear scaling, loss scaling
//	internal/dist       synchronous data-parallel engine: lockstep goroutine
//	                    workers, central/tree/ring allreduce with exact
//	                    message/byte/round accounting, two-tier hierarchical
//	                    (intra-node + inter-node) composition with per-tier
//	                    accounting, gradient bucketing, 1-bit/FP16 payload
//	                    codecs, deterministic fault injection with exact
//	                    recovery, elastic membership (dead workers evicted,
//	                    shards rebalanced, training continues on P−1)
//	internal/comm       alpha-beta cost model, energy model
//	internal/cluster    calibrated machine profiles + time simulator
//	internal/core       the large-batch Trainer (the paper's recipe)
//	internal/harness    one function per paper table/figure
//	internal/async      asynchronous parameter-server baseline (one loop)
//	internal/compress   FP16 slice converters (the packed wire form)
//	internal/checkpoint binary snapshots with bit-identical resume
//	internal/serve      dynamic-batching inference scheduler + replica pool
//
// Quickstart (see examples/quickstart for the runnable version):
//
//	ds := repro.GenerateSynth(repro.DefaultSynthConfig())
//	res, err := repro.Train(repro.TrainConfig{
//	        Model:        repro.MicroAlexNetFactory(repro.MicroConfig{}),
//	        Batch:        1024,
//	        Epochs:       20,
//	        Method:       repro.LARSWarmup,
//	        WarmupEpochs: 5,
//	}, ds)
package repro

import (
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/serve"
)

// Core training API.
type (
	// TrainConfig configures one large-batch training run.
	TrainConfig = core.Config
	// Method selects the training recipe.
	Method = core.Method
)

// Training recipes.
const (
	// BaselineSGD is the small-batch momentum-SGD reference.
	BaselineSGD = core.BaselineSGD
	// LinearScalingWarmup is Goyal et al.'s large-batch recipe.
	LinearScalingWarmup = core.LinearScalingWarmup
	// LARSWarmup is the paper's recipe: LARS + warmup + poly decay.
	LARSWarmup = core.LARSWarmup
)

// Train runs one configured training run on the dataset.
func Train(cfg TrainConfig, ds *data.Synth) (*core.Result, error) { return core.Train(cfg, ds) }

// GenerateSynth builds the deterministic synthetic ImageNet substitute.
func GenerateSynth(cfg data.SynthConfig) *data.Synth { return data.GenerateSynth(cfg) }

// DefaultSynthConfig returns the laptop-scale default dataset.
func DefaultSynthConfig() data.SynthConfig { return data.DefaultSynthConfig() }

// MicroConfig configures the reduced trainable models.
type MicroConfig = models.MicroConfig

// Full-size architecture specs (Table 6).

// AlexNetBNSpec returns the batch-norm AlexNet refit used at batch 32K.
func AlexNetBNSpec() *models.ModelSpec { return models.AlexNetBNSpec() }

// ResNet50Spec returns ResNet-50 (25.6M params, 7.7 GFLOPs/image).
func ResNet50Spec() *models.ModelSpec { return models.ResNet50Spec() }

// MicroAlexNetSpec returns the cost-accounting spec of the micro AlexNet
// built by MicroAlexNetFactory with the same config.
func MicroAlexNetSpec(cfg MicroConfig) *models.ModelSpec { return models.MicroAlexNetSpec(cfg) }

// MicroAlexNetFactory returns a model factory for core.Config.Model that
// builds micro-AlexNet replicas seeded per worker.
func MicroAlexNetFactory(cfg MicroConfig) func(seed uint64) *nn.Network {
	return models.MicroAlexNetSpec(cfg).Factory()
}

// Ring is bandwidth-optimal chunked ring allreduce.
const Ring = dist.Ring

// Cluster simulation.

// ClusterConfig is a device set joined by one fabric.
type ClusterConfig = cluster.Cluster

// Calibrated machines from the paper's hardware.
var (
	TeslaM40  = cluster.TeslaM40
	TeslaP100 = cluster.TeslaP100
)

// Simulate prices one training run on a cluster (Tables 2, 8, 9).
func Simulate(c ClusterConfig, spec *models.ModelSpec, batch, epochs, datasetSize int) cluster.Estimate {
	return cluster.Simulate(c, spec, batch, epochs, datasetSize)
}

// DGX1 returns one 8xP100 DGX-1 station.
func DGX1() ClusterConfig { return cluster.DGX1() }

// KNLCluster returns n KNL nodes on Omni-Path.
func KNLCluster(n int) ClusterConfig { return cluster.KNLCluster(n) }

// CPUCluster returns n Skylake nodes on Omni-Path.
func CPUCluster(n int) ClusterConfig { return cluster.CPUCluster(n) }

// Serving tier: the dynamic-batching inference engine over a replica fleet.
type (
	// ServeConfig is one serving configuration (batch window, queue bound,
	// replica pool, service pricing).
	ServeConfig = serve.Config
	// ServiceModel prices one batch forward pass in virtual ticks.
	ServiceModel = serve.ServiceModel
	// Ticks is virtual time (1 tick = 1µs).
	Ticks = serve.Ticks
)

// ServeSimulate runs the dynamic batcher over a trace on the virtual clock.
func ServeSimulate(cfg ServeConfig, trace serve.Trace) (*serve.Report, error) {
	return serve.Simulate(cfg, trace)
}

// UniformServeTrace generates the deterministic-clock trace (fixed gap).
func UniformServeTrace(n int, gap Ticks, images int) serve.Trace {
	return serve.UniformTrace(n, gap, images)
}

// BurstyServeTrace generates seeded on/off traffic.
func BurstyServeTrace(n, onLen int, onGap, offGap Ticks, images int, seed uint64) serve.Trace {
	return serve.BurstyTrace(n, onLen, onGap, offGap, images, seed)
}

// ExpectedServeStats prices the uniform-gap regime counter-for-counter.
func ExpectedServeStats(cfg ServeConfig, n int, gap Ticks) (serve.Stats, error) {
	return comm.ExpectedServeStats(cfg, n, gap)
}

// SimulateServe sizes a replica fleet for an offered rate and p99 target.
func SimulateServe(m cluster.Machine, spec *models.ModelSpec, ratePerSec float64, maxBatch int, maxDelay, p99Target Ticks) (cluster.ServeEstimate, error) {
	return cluster.SimulateServe(m, spec, ratePerSec, maxBatch, maxDelay, p99Target)
}
