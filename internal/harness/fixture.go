package harness

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// This file is what the engine-backed studies share: the seeded task, the
// one place an engine is built and stepped, the trainer-level identity
// check with its negative control, and the profiled step with its cells.
// A study is then a loop over []dist.Hierarchy — a flat world is
// dist.Flat(algo, p), so no study forks on the kind of topology — that
// compares a report's TierComm (or Overlap) with one closed form.

// studySynth generates the small seeded task the deterministic studies
// train or step on: 4 classes, 256 training images of size×size.
func studySynth(size, testSize int) *data.Synth {
	return data.GenerateSynth(data.SynthConfig{
		Classes: 4, TrainSize: 256, TestSize: testSize,
		C: 3, H: size, W: size, Noise: 0.25, MaxShift: 1, Seed: 7,
	})
}

// fixture is what a study steps engines over: a model factory (replica i is
// seeded seed + i·7919) and one batch.
type fixture struct {
	factory func(seed uint64) *nn.Network
	seed    uint64
	x       *tensor.Tensor
	labels  []int
}

// newFixture takes the first n training images of ds as the batch.
func newFixture(factory func(uint64) *nn.Network, seed uint64, ds *data.Synth, n int) fixture {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	x, labels := ds.Train.MustGather(idx)
	return fixture{factory: factory, seed: seed, x: x, labels: labels}
}

// paramElems returns the model's per-parameter coordinate counts in Params()
// order (what the overlap closed form takes) and their total (the allreduce
// payload, in float32 coordinates).
func (f fixture) paramElems() (elems []int, total int) {
	for _, p := range f.factory(f.seed).Params() {
		elems = append(elems, p.Numel())
		total += p.Numel()
	}
	return elems, total
}

// run is the harness's one engine scaffold: it builds h.Workers() replicas,
// one engine under cfg on topology h, drives `steps` training steps
// (gradient allreduce, then weight broadcast) over the batch, and closes the
// engine. It returns every step's ledger (Engine.StepReport); inspect, when
// non-nil, sees the engine after the last step.
func (f fixture) run(h dist.Hierarchy, cfg dist.Config, steps int, inspect func(*dist.Engine)) ([]dist.Report, error) {
	replicas := make([]*nn.Network, h.Workers())
	for i := range replicas {
		replicas[i] = f.factory(f.seed + uint64(i)*7919)
	}
	cfg.Topology = &h
	e := dist.NewEngine(cfg, replicas)
	defer e.Close()
	reports := make([]dist.Report, steps)
	for s := range reports {
		if _, err := e.ComputeGradient(f.x, f.labels); err != nil {
			return nil, err
		}
		if err := e.BroadcastWeights(); err != nil {
			return nil, err
		}
		reports[s] = e.StepReport()
	}
	if inspect != nil {
		inspect(e)
	}
	return reports, nil
}

// step is run for the common case: one step, its ledger.
func (f fixture) step(h dist.Hierarchy, cfg dist.Config) (dist.Report, error) {
	reports, err := f.run(h, cfg, 1, nil)
	if err != nil {
		return dist.Report{}, err
	}
	return reports[0], nil
}

// topologyLabel names a row: a flat world by its algorithm, a tiered one by
// its layout.
func topologyLabel(h dist.Hierarchy) string {
	if h.PerNode == 1 {
		return h.Inter.String()
	}
	return h.String()
}

// studyTopologies is the row set of the per-topology studies: the three flat
// algorithms over `workers` workers, then — when they split evenly — two
// nodes of workers/2, ring inside, tree across.
func studyTopologies(workers int) []dist.Hierarchy {
	hs := []dist.Hierarchy{dist.Flat(dist.Central, workers), dist.Flat(dist.Tree, workers), dist.Flat(dist.Ring, workers)}
	if workers >= 4 && workers%2 == 0 {
		hs = append(hs, dist.NewHierarchy(2, workers/2))
	}
	return hs
}

// matchCell renders a closed-form cross-check: "exact" when every counter of
// the measured value equals the model's.
func matchCell[T comparable](got, want T) string {
	if got != want {
		return fmt.Sprintf("DRIFT: want %+v", want)
	}
	return "exact"
}

// trajectoryIdentity runs the trainer-level determinism contract on base —
// the study's model, batch, epochs and whatever it is varying (precision, a
// resolution schedule) are fields of it: the per-epoch loss trajectory at
// P=1 must reproduce bit-identically at P=4 flat, P=4 hierarchical (2x2) and
// P=4 overlapped, with the shard split pinned to 4. It returns the identity
// cell and the reference trajectory, which the caller hands to mustDiffer.
func trajectoryIdentity(base core.Config, ds *data.Synth) (string, []float64, error) {
	run := func(h dist.Hierarchy, bucket int, overlap bool) ([]float64, error) {
		cfg := base
		cfg.Workers, cfg.Shards, cfg.Topology = h.Workers(), 4, &h
		cfg.Bucket, cfg.Overlap = bucket, overlap
		res, err := core.Train(cfg, ds)
		if err != nil {
			return nil, err
		}
		traj := make([]float64, len(res.History))
		for i, ep := range res.History {
			traj[i] = ep.TrainLoss
		}
		return traj, nil
	}
	ref, err := run(dist.Flat(dist.Ring, 1), 0, false)
	if err != nil {
		return "", nil, err
	}
	for _, tc := range []struct {
		label   string
		h       dist.Hierarchy
		bucket  int
		overlap bool
	}{
		{"P=4 flat", dist.Flat(dist.Ring, 4), 0, false},
		{"P=4 hier", dist.NewHierarchy(2, 2), 0, false},
		{"P=4 overlap", dist.Flat(dist.Ring, 4), 33, true},
	} {
		got, err := run(tc.h, tc.bucket, tc.overlap)
		if err != nil {
			return "", nil, err
		}
		for e := range ref {
			if got[e] != ref[e] {
				return fmt.Sprintf("DRIFT at %s epoch %d", tc.label, e), ref, nil
			}
		}
	}
	return "exact", ref, nil
}

// mustDiffer is the identity column's negative control: two runs that are
// supposed to differ must not share a loss trajectory bit for bit — without
// it the column could pass with the switch under study dead.
func mustDiffer(a, b []float64, what string) error {
	if slices.Equal(a, b) {
		return fmt.Errorf("harness: %s", what)
	}
	return nil
}

// profiledSteps is how many steps profiledStep times after its warm-up: one
// step's wall swings several-fold with the host, the median of twenty does
// not.
const profiledSteps = 20

// profiledStep profiles P=4 ring engine steps over the fixture under cfg
// (fp16 wire codec, so every phase is populated) — one warm-up, then
// profiledSteps timed — and checks the profiler's construction on every one:
// the phase shares sum to the step wall. It renders the studies' seven
// cells: the timed steps' median wall, then the gemm / im2col / convert /
// reduce / codec / other shares of their summed profile.
func (f fixture) profiledStep(cfg dist.Config) ([]string, error) {
	cfg.Codec, cfg.Profile = dist.FP16Codec{}, true
	reports, err := f.run(dist.Flat(dist.Ring, 4), cfg, 1+profiledSteps, nil)
	if err != nil {
		return nil, err
	}
	var sum dist.ProfileStats
	var walls []int64
	for i, r := range reports {
		prof := r.Profile
		if prof.Accounted() != prof.WallNS {
			return nil, fmt.Errorf("harness: profile shares (%d ns) do not sum to step wall (%d ns)", prof.Accounted(), prof.WallNS)
		}
		if i > 0 {
			sum.Add(prof)
			walls = append(walls, prof.WallNS)
		}
	}
	slices.Sort(walls)
	median := float64(walls[profiledSteps/2-1]+walls[profiledSteps/2]) / 2
	cells := []string{fmt.Sprintf("%.1fms", median/1e6)}
	for _, ns := range []int64{sum.GemmNS, sum.Im2colNS, sum.ConvertNS, sum.ReduceNS, sum.CodecNS, sum.OtherNS} {
		cells = append(cells, fmt.Sprintf("%.1f%%", 100*sum.Share(ns)))
	}
	return cells, nil
}
