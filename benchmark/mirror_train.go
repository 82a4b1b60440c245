package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// trainMirror is what one run of the mirrored step loop produced.
type trainMirror struct {
	finalLoss float64
	testAcc   float64
	diverged  bool
	losses    []float64     // batch-mean loss of every step, in order
	skipped   int           // steps the loss scaler refused
	wall      time.Duration // the same window core.Train reports as Result.Wall

	step      dist.CommStats    // counters of the last full step
	hidden    float64           // hidden share of the bytes of all steps
	commDelta int64             // summed |measured − closed form| over all steps
	profile   dist.ProfileStats // summed Engine.StepProfile (profiled runs)
}

// mirrorTrain is core.Train's synchronous step loop written out in the
// benchmark, so that each call into data, dist and opt can carry a span. It
// covers what the workloads use — LARS with warmup and poly decay, optional
// augmentation, resolution schedule, binary16 precision with the loss
// scaler, buckets, overlap and codec — and nothing else of core.Config.
// Seeds are derived as core.Train derives them, which is what makes its
// losses bit-equal to core.Train's and lets the run check flag any drift
// between the two loops.
//
// maxSteps > 0 stops after that many steps, before any evaluation; profile
// turns on the engine's phase profiler and sums Engine.StepProfile.
func mirrorTrain(cfg core.Config, ds *data.Synth, tr *tracer, maxSteps int, profile bool) (*trainMirror, error) {
	if cfg.Method != core.LARSWarmup || cfg.MicroBatch != 0 || cfg.SyncEvery > 1 ||
		cfg.Topology != nil || cfg.Faults != nil || cfg.Elastic != nil {
		return nil, fmt.Errorf("mirror: core.Config uses a feature the mirror loop does not copy")
	}
	m := &trainMirror{testAcc: math.NaN()}
	start := time.Now()
	root := tr.begin("core.train") // span 0 of a fresh tracer

	sp := tr.begin("models.new")
	replicas := make([]*nn.Network, cfg.Workers)
	for i := range replicas {
		replicas[i] = cfg.Model(cfg.Seed + uint64(i)*7919)
		if cfg.Precision != tensor.F32 {
			replicas[i].SetPrecision(cfg.Precision)
		}
	}
	tr.end(sp)

	sp = tr.begin("dist.new_engine")
	engine := dist.NewEngine(dist.Config{
		Algo: cfg.Algo, Shards: cfg.Shards, BucketElems: cfg.Bucket,
		Overlap: cfg.Overlap, Reduction: cfg.Reduction, Codec: cfg.Codec, Profile: profile,
	}, replicas)
	defer engine.Close()
	tr.end(sp)

	params := engine.Master().Params()
	nparams := engine.Master().NumParams()
	optimizer := opt.NewLARS(params, opt.LARSConfig{
		Momentum: cfg.Momentum, WeightDecay: cfg.WeightDecay, Trust: cfg.Trust,
	})
	stepsPerEpoch := len(data.Batches(make([]int, ds.Train.Len()), cfg.Batch))
	if stepsPerEpoch == 0 {
		return nil, fmt.Errorf("mirror: batch %d exceeds training set %d", cfg.Batch, ds.Train.Len())
	}
	totalSteps := stepsPerEpoch * cfg.Epochs
	var sched opt.Schedule = opt.Poly{Base: opt.LinearScalingRule(cfg.BaseLR, cfg.BaseBatch, cfg.Batch), Power: cfg.PolyPower}
	if cfg.WarmupEpochs > 0 {
		sched = opt.Warmup{Inner: sched, WarmupSteps: int(cfg.WarmupEpochs * float64(stepsPerEpoch))}
	}
	var aug *data.Augmenter
	if cfg.Augment {
		aug = data.NewAugmenter(2, true, rng.New(cfg.Seed^0xa5a5a5a5))
	}
	var scaler *opt.LossScaler
	if cfg.Precision == tensor.F16 || cfg.LossScale > 0 {
		scaler = opt.NewLossScaler(cfg.LossScale, 0)
	}

	// The closed form of one full step and of its reduce half alone (a step
	// the scaler skips never broadcasts).
	wire, err := wireOf(cfg.Codec)
	if err != nil {
		return nil, err
	}
	fullStep := comm.ExpectedLocalSGDStats(cfg.Algo, cfg.Workers, 1, 1, nparams, cfg.Bucket, wire)
	reduceOnly := fullStep
	subStats(&reduceOnly, broadcastStats(cfg.Algo, cfg.Workers, nparams, cfg.Bucket))

	_, nativeH, nativeW := ds.Train.ImageShape()
	var overlap dist.OverlapStats
	step := 0
loop:
	for epoch := 0; epoch < cfg.Epochs && !m.diverged; epoch++ {
		ep := tr.begin("epoch")
		resH, resW := nativeH, nativeW
		if cfg.Resolutions != nil {
			resH, resW = cfg.Resolutions.At(epoch)
		}
		sp := tr.begin("data.shuffle")
		batches := data.Batches(ds.Train.Shuffled(cfg.Seed, epoch), cfg.Batch)
		tr.end(sp)
		var epochLoss float64
		var epochSteps int
		for _, idx := range batches {
			if maxSteps > 0 && step == maxSteps {
				tr.end(ep)
				break loop
			}
			tr.nextStep()
			st := tr.begin("step")

			sp := tr.begin("data.gather")
			x, labels, err := ds.Train.GatherAt(idx, resH, resW)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			if aug != nil {
				sp = tr.begin("data.augment")
				aug.Apply(x)
				tr.end(sp)
			}
			if scaler != nil {
				engine.SetLossScale(scaler.Scale())
			}
			sp = tr.begin("dist.compute_gradient")
			loss, err := engine.ComputeGradient(x, labels)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			m.losses = append(m.losses, loss)
			epochLoss += loss
			epochSteps++
			if math.IsNaN(loss) || math.IsInf(loss, 0) || loss > cfg.MaxLoss {
				m.diverged = true
				tr.end(st)
				break
			}
			want := fullStep
			applied := true
			if scaler != nil {
				sp = tr.begin("opt.scaler_update")
				applied = scaler.Update(params)
				tr.end(sp)
			}
			if applied {
				sp = tr.begin("opt.step")
				optimizer.Step(sched.LR(step, totalSteps))
				tr.end(sp)
				sp = tr.begin("dist.broadcast")
				err = engine.BroadcastWeights()
				tr.end(sp)
				if err != nil {
					return nil, err
				}
				m.step = engine.StepStats()
			} else {
				m.skipped++
				want = reduceOnly
			}
			m.commDelta += statsDistance(engine.StepStats(), want)
			overlap.Add(engine.StepOverlapStats())
			if profile {
				m.profile.Add(engine.StepProfile())
			}
			step++
			tr.end(st)
		}
		last := epoch == cfg.Epochs-1 || m.diverged
		if last || epoch%cfg.EvalEveryEpochs == 0 {
			sp := tr.begin("dist.eval")
			acc, err := engine.EvalAccuracy(ds.Test.Images, ds.Test.Labels, 256)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			m.testAcc = acc
		}
		m.finalLoss = epochLoss / float64(epochSteps)
		tr.end(ep)
	}
	m.hidden = overlap.HiddenByteFrac()
	tr.end(root)
	m.wall = time.Since(start)
	return m, nil
}

// wireOf is the closed forms' wire size of a payload under the codec.
func wireOf(codec dist.Codec) (comm.WireSizer, error) {
	switch codec.(type) {
	case nil:
		return comm.RawWire, nil
	case dist.FP16Codec:
		return comm.FP16Wire, nil
	}
	return nil, fmt.Errorf("no closed form for codec %s", codec.Name())
}

// broadcastStats is the schedule of one bucketed weight broadcast — the
// half of a step that a skipped step lacks, and the extra that
// dist.NewEngine performs once at construction.
func broadcastStats(algo dist.Algorithm, workers, nelems, bucket int) dist.CommStats {
	var s dist.CommStats
	for _, b := range dist.BucketRanges(nelems, bucket) {
		s.Add(dist.BroadcastSchedule(algo, workers, 4*int64(b[1]-b[0])))
	}
	return s
}

func subStats(s *dist.CommStats, o dist.CommStats) {
	s.Messages -= o.Messages
	s.Bytes -= o.Bytes
	s.Steps -= o.Steps
}

// statsDistance sums the absolute differences of the schedule counters.
func statsDistance(a, b dist.CommStats) int64 {
	abs := func(v int64) int64 {
		if v < 0 {
			return -v
		}
		return v
	}
	return abs(a.Messages-b.Messages) + abs(a.Bytes-b.Bytes) + abs(a.Steps-b.Steps) +
		abs(a.Retries-b.Retries) + abs(a.Stalls-b.Stalls)
}
