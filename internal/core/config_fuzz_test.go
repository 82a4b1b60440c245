package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// fuzzAxes names what each byte of a FuzzTrainConfig input selects; a byte
// past the end of the input reads as 0, the plainest choice of its axis, so
// the fuzzer shrinks a failure toward the default run.
const (
	axWorkers    = iota // 1–4 workers
	axTopology          // flat Central, Tree or Ring, or the 2×2 hierarchy
	axModel             // mlp, the GAP-headed conv net, or alexnet (BN + dropout)
	axShards            // the default per-worker split, or 4 pinned shards
	axBuckets           // one bucket or several, each with or without Overlap
	axPrecision         // F32 or F16
	axCodec             // raw float32, fp16 or 1-bit wire
	axSync              // SyncEvery 0, 2 or 4; IntraSyncEvery 2 in the upper half
	axMicro             // whole batches or micro-batches of 8
	axResolution        // native, or one switch 4x4 → 8x8 on the conv net
	axDrop              // drop rate 0, 0.3, 1 or 1.5
	axStall             // stall rate, the same choices
	axMembership        // none, a death, a join, or an outage with a return; its worker
	axElastic           // off, the default threshold, or EvictAfter 1
	axLossScale         // default, 2^24 (forces overflow skips at F16) or -4
	axProfile           // the phase profiler off or on
)

// fuzzConfig decodes one cross-axis configuration, and whether its model
// keeps per-replica state (BN running statistics, a dropout RNG). Some
// decodings are invalid on purpose (a 2×2 hierarchy over three workers, a
// rate of 1.5, a negative loss scale, a dead worker the fleet does not
// have): those must come back from Validate, and from Train, as errors.
func fuzzConfig(in []byte) (cfg Config, stateful bool) {
	pick := func(axis, n int) int {
		if axis >= len(in) {
			return 0
		}
		return int(in[axis]) % n
	}
	cfg = Config{
		Workers: 1 + pick(axWorkers, 4), Batch: 16, Epochs: 2,
		Method: LARSWarmup, BaseLR: 0.1, WarmupEpochs: 0.5, Seed: 1,
		Profile: pick(axProfile, 2) == 1,
	}
	switch t := pick(axTopology, 4); t {
	case 3:
		h := dist.NewHierarchy(2, 2)
		cfg.Topology = &h
	default:
		cfg.Algo = dist.Algorithm(t)
	}
	model := pick(axModel, 3)
	cfg.Model = fuzzModels[model]
	cfg.Shards = 4 * pick(axShards, 2)
	cfg.Bucket = []int{0, 40, 40, 0}[pick(axBuckets, 4)]
	cfg.Overlap = pick(axBuckets, 4) >= 2
	cfg.Precision = []tensor.Precision{tensor.F32, tensor.F16}[pick(axPrecision, 2)]
	cfg.Codec = []dist.Codec{nil, dist.FP16Codec{}, dist.NewOneBitCodec()}[pick(axCodec, 3)]
	cfg.SyncEvery = []int{0, 2, 4}[pick(axSync, 3)]
	cfg.IntraSyncEvery = 2 * (pick(axSync, 6) / 3)
	cfg.MicroBatch = 8 * pick(axMicro, 2)
	if model == 1 && pick(axResolution, 2) == 1 {
		cfg.Resolutions, _ = data.ParseResolutionSchedule("4x4@0,8x8@1+")
	}
	rates := []float64{0, 0.3, 1, 1.5}
	plan := dist.FaultPlan{Seed: 5, DropRate: rates[pick(axDrop, 4)], StallRate: rates[pick(axStall, 4)]}
	w := 1 + pick(axMembership, 12)/4
	switch pick(axMembership, 4) {
	case 1:
		plan.Dead = map[int]int64{w: 2}
	case 2:
		plan.Join = map[int]int64{w: 3}
	case 3:
		plan.Dead, plan.Join = map[int]int64{w: 1}, map[int]int64{w: 5}
	}
	if plan.DropRate != 0 || plan.StallRate != 0 || plan.Dead != nil || plan.Join != nil {
		cfg.Faults = &plan
	}
	if e := pick(axElastic, 3); e > 0 {
		cfg.Elastic = &dist.Elastic{EvictAfter: e - 1}
	}
	cfg.LossScale = []float64{0, 1 << 24, -4}[pick(axLossScale, 3)]
	return cfg, model == 2
}

// fuzzModels are the three model shapes the property test draws from, all
// at 8×8 inputs over four classes and width 2.
var fuzzModels = []func(uint64) *nn.Network{
	func(seed uint64) *nn.Network {
		return models.NewMLP(models.MicroConfig{Classes: 4, InC: 3, InH: 8, InW: 8, Width: 2, Seed: seed})
	},
	func(seed uint64) *nn.Network {
		return models.NewMicroConvNet(models.MicroConfig{Classes: 4, InC: 3, InH: 8, InW: 8, Width: 2, Seed: seed})
	},
	func(seed uint64) *nn.Network {
		return models.NewMicroAlexNet(models.MicroConfig{Classes: 4, InC: 3, InH: 8, InW: 8, Width: 2, Seed: seed})
	},
}

// FuzzTrainConfig is the cross-axis property test: a configuration drawn
// over every axis core.Train composes is either refused by Validate, or it
// trains without panicking, deterministically, and — where the contracts
// say so — bit-identically to one worker and counter-for-counter to comm's
// closed forms. Every exclusion below names its reason. The committed seeds
// under testdata/fuzz/FuzzTrainConfig replay on every go test; a real run is
// go test ./internal/core -run '^$' -fuzz FuzzTrainConfig -parallel 1.
func FuzzTrainConfig(f *testing.F) {
	ds := data.GenerateSynth(data.SynthConfig{
		Classes: 4, TrainSize: 64, TestSize: 32,
		C: 3, H: 8, W: 8, Noise: 0.25, MaxShift: 1, Seed: 7,
	})
	f.Fuzz(func(t *testing.T, in []byte) {
		// Each run decodes afresh: a 1-bit codec carries its residuals in
		// the codec value, so two runs must not share one.
		train := func(mut func(*Config)) (*Result, error) {
			cfg, _ := fuzzConfig(in)
			mut(&cfg)
			return Train(cfg, ds)
		}
		same := func(*Config) {}
		cfg, stateful := fuzzConfig(in)
		if err := cfg.Validate(); err != nil {
			if res, terr := train(same); terr == nil || res != nil {
				t.Fatalf("Validate refused %+v (%v) but Train returned (%v, %v)", cfg, err, res, terr)
			}
			return
		}
		a, errA := train(same)
		b, errB := train(same)
		if errA != nil || errB != nil {
			// A plan that kills a worker without Elastic ends the run with
			// a typed error at the death step, the same one both times.
			var dead *dist.WorkerDeadError
			if !errors.As(errA, &dead) || errB == nil || errA.Error() != errB.Error() {
				t.Fatalf("%+v: Train returned %v then %v, want one *dist.WorkerDeadError twice", cfg, errA, errB)
			}
			return
		}
		if msg := sameRun(a, b); msg != "" {
			t.Fatalf("%+v: two runs differ: %s", cfg, msg)
		}

		faultless := cfg.Faults == nil
		membership := cfg.Faults != nil && (cfg.Faults.Dead != nil || cfg.Faults.Join != nil)
		// One worker reproduces the run bit for bit only when the shard
		// split is pinned (the default split follows the worker count), the
		// replicas hold one set of weights between steps (local SGD lets
		// them drift inside a window), nobody leaves or joins (a change
		// resyncs at a world one worker never has), and the model has no
		// per-replica state (BN running statistics, a dropout RNG).
		if cfg.Shards != 0 && cfg.SyncEvery <= 1 && !membership && !stateful {
			r, err := train(func(c *Config) { c.Workers, c.Topology = 1, nil })
			if err != nil {
				t.Fatalf("%+v: the one-worker rerun failed: %v", cfg, err)
			}
			if msg := sameLosses(a, r); msg != "" {
				t.Fatalf("%+v: %d workers and one differ: %s", cfg, cfg.Workers, msg)
			}
		}
		// The counters equal the closed form only for a clean run (faults
		// add recovery and resync traffic the form leaves out), on a wire
		// comm can price (1-bit payloads depend on the data), and one
		// reduction per optimizer step (micro-batches reduce once a chunk).
		_, isFP16 := cfg.Codec.(dist.FP16Codec)
		if faultless && (cfg.Codec == nil || isFP16) && cfg.MicroBatch == 0 {
			want := closedForm(cfg, a, isFP16)
			if a.Comm != want.Total() {
				t.Fatalf("%+v: measured %+v, closed form %+v", cfg, a.Comm, want.Total())
			}
			if cfg.Topology != nil && a.TierComm != want {
				t.Fatalf("%+v: measured tiers %+v, closed form %+v", cfg, a.TierComm, want)
			}
			// What hides is priced per raw gradient step; averaging
			// rounds and broadcasts are always exposed.
			if cfg.Overlap && cfg.SyncEvery <= 1 && cfg.Codec == nil {
				var elems []int
				for _, p := range cfg.Model(1).Params() {
					elems = append(elems, p.Numel())
				}
				per := comm.ExpectedOverlapStats(topology(cfg), nil, elems, cfg.Bucket)
				if a.Overlap.HiddenRounds != a.Iterations*per.HiddenRounds || a.Overlap.HiddenBytes != a.Iterations*per.HiddenBytes {
					t.Fatalf("%+v: hid %+v over %d steps, closed form %+v a step", cfg, a.Overlap, a.Iterations, per)
				}
			}
		}
	})
}

// closedForm is comm's prediction of a clean run's counters: every step
// reduces and broadcasts (local SGD: every window closes with a round),
// dist.NewEngine broadcasts once at construction, and a step the loss scaler
// skipped — or the diverged step that ended a synchronous run — broadcast
// nothing.
func closedForm(cfg Config, res *Result, fp16 bool) dist.TierStats {
	h := topology(cfg)
	wire := comm.RawWire
	if fp16 {
		wire = comm.FP16Wire
	}
	nelems := cfg.Model(1).NumParams()
	want := comm.ExpectedLocalSGDTierStats(h, nil, max(cfg.SyncEvery, 1), cfg.IntraSyncEvery, res.Iterations, nelems, cfg.Bucket, wire)
	// The construction broadcast, less one for every step that sent none.
	n := 1 - int64(res.Scale.Overflows)
	if res.Diverged && cfg.SyncEvery <= 1 {
		n--
	}
	for _, b := range dist.BucketRanges(nelems, cfg.Bucket) {
		bcast := dist.HierBroadcastSchedule(h, nil, 4*int64(b[1]-b[0]))
		want.Intra.Add(times(bcast.Intra, n))
		want.Inter.Add(times(bcast.Inter, n))
	}
	return want
}

// topology is the hierarchy the run's engine prices every schedule on.
func topology(cfg Config) dist.Hierarchy {
	if cfg.Topology != nil {
		return *cfg.Topology
	}
	return dist.Flat(cfg.Algo, cfg.Workers)
}

func times(s dist.CommStats, n int64) dist.CommStats {
	return dist.CommStats{Messages: n * s.Messages, Bytes: n * s.Bytes, Steps: n * s.Steps, Retries: n * s.Retries, Stalls: n * s.Stalls}
}

// sameRun compares everything two runs of one configuration must agree on:
// the history bit for bit, the iteration count, the loss scaler and the
// ledger — all of it but the phase profile, which is wall time.
func sameRun(a, b *Result) string {
	if msg := sameLosses(a, b); msg != "" {
		return msg
	}
	ra, rb := a.Report, b.Report
	ra.Profile, rb.Profile = dist.ProfileStats{}, dist.ProfileStats{}
	switch {
	case a.Iterations != b.Iterations:
		return "iterations"
	case a.Scale != b.Scale:
		return "loss scaler"
	case !reflect.DeepEqual(ra, rb):
		return "report"
	}
	return ""
}

// sameLosses compares two histories bit for bit: every epoch's loss,
// accuracy and resolution, and the divergence verdict.
func sameLosses(a, b *Result) string {
	if len(a.History) != len(b.History) || a.Diverged != b.Diverged {
		return "history length or divergence"
	}
	for e := range a.History {
		x, y := a.History[e], b.History[e]
		if math.Float64bits(x.TrainLoss) != math.Float64bits(y.TrainLoss) ||
			math.Float64bits(x.TestAcc) != math.Float64bits(y.TestAcc) ||
			x.ResH != y.ResH || x.ResW != y.ResW {
			return fmt.Sprintf("epoch %d: %+v vs %+v", e, x, y)
		}
	}
	return ""
}
