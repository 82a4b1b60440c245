package dist_test

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
)

// overlapConfigs are representative engine layouts for the overlap tests:
// every flat topology plus a two-tier hierarchy, with enough buckets that
// most of the schedule is overlap-eligible.
func overlapConfigs(bucketElems int) []dist.Config {
	h := dist.NewHierarchy(2, 2)
	return []dist.Config{
		{Algo: dist.Central, BucketElems: bucketElems},
		{Algo: dist.Tree, BucketElems: bucketElems},
		{Algo: dist.Ring, BucketElems: bucketElems},
		{Topology: &h, BucketElems: bucketElems},
	}
}

// TestOverlapBitIdenticalToSequential is the tentpole's value contract:
// firing bucket reductions inside the backward pass must not change a
// single bit of the reduced gradient or the loss versus reducing after the
// full backward, for every topology.
func TestOverlapBitIdenticalToSequential(t *testing.T) {
	x, labels, factory := testTask(64)
	n := factory(1).NumParams()
	for _, cfg := range overlapConfigs(n/5 + 1) {
		seq := cfg
		seq.Overlap = false
		e := newEngine(seq, 4, factory)
		wantLoss, err := e.ComputeGradient(x, labels)
		if err != nil {
			t.Fatal(err)
		}
		wantGrad := flatGrad(e)
		wantStats := e.StepStats()
		e.Close()

		ov := cfg
		ov.Overlap = true
		oe := newEngine(ov, 4, factory)
		gotLoss, err := oe.ComputeGradient(x, labels)
		if err != nil {
			t.Fatal(err)
		}
		gotGrad := flatGrad(oe)
		gotStats := oe.StepStats()
		oe.Close()

		if gotLoss != wantLoss {
			t.Fatalf("%+v: overlap loss %v differs bitwise from sequential %v", cfg, gotLoss, wantLoss)
		}
		for i := range wantGrad {
			if gotGrad[i] != wantGrad[i] {
				t.Fatalf("%+v: overlap changed grad coord %d: %v vs %v", cfg, i, gotGrad[i], wantGrad[i])
			}
		}
		if gotStats != wantStats {
			t.Fatalf("%+v: overlap changed the schedule counters: %+v vs %+v", cfg, gotStats, wantStats)
		}
	}
}

// TestOverlapBitIdenticalWithCodecAndShards extends the value contract to
// lossy wire codecs (whose error-feedback state is slot-keyed and must not
// care when buckets reduce) and multi-shard workers.
func TestOverlapBitIdenticalWithCodecAndShards(t *testing.T) {
	x, labels, factory := testTask(60)
	n := factory(1).NumParams()
	run := func(overlap bool) ([]float32, dist.CommStats) {
		e := newEngine(dist.Config{
			Algo: dist.Ring, Shards: 6, BucketElems: n/4 + 1,
			Overlap: overlap, Codec: dist.NewOneBitCodec(),
		}, 3, factory)
		defer e.Close()
		var grad []float32
		for step := 0; step < 3; step++ {
			if _, err := e.ComputeGradient(x, labels); err != nil {
				t.Fatal(err)
			}
			// A toy update so the codec's residual state matters.
			addScaledGrads(e.Master().Params(), -0.05)
			if err := e.BroadcastWeights(); err != nil {
				t.Fatal(err)
			}
			grad = flatGrad(e)
		}
		return grad, e.Stats()
	}
	seqGrad, seqStats := run(false)
	ovGrad, ovStats := run(true)
	for i := range seqGrad {
		if ovGrad[i] != seqGrad[i] {
			t.Fatalf("overlap + 1-bit codec changed grad coord %d after 3 steps", i)
		}
	}
	if ovStats != seqStats {
		t.Fatalf("overlap changed codec schedule counters: %+v vs %+v", ovStats, seqStats)
	}
}

// TestOverlapSplitEqualsStats pins the accounting invariant: per step and
// cumulatively, HiddenRounds+ExposedRounds == Stats().Steps and
// HiddenBytes+ExposedBytes == Stats().Bytes — including broadcasts and
// fault-recovery traffic, which are always exposed.
func TestOverlapSplitEqualsStats(t *testing.T) {
	x, labels, factory := testTask(64)
	// Buckets fine enough that some lie entirely past the MLP's large
	// first parameter — those are the overlap-eligible (hidden) ones.
	for _, cfg := range overlapConfigs(512) {
		cfg.Overlap = true
		cfg.Faults = &dist.FaultPlan{Seed: 3, DropRate: 0.5, StallRate: 0.5}
		e := newEngine(cfg, 4, factory)
		for step := 0; step < 3; step++ {
			if _, err := e.ComputeGradient(x, labels); err != nil {
				t.Fatal(err)
			}
			if err := e.BroadcastWeights(); err != nil {
				t.Fatal(err)
			}
			ov, st := e.StepOverlapStats(), e.StepStats()
			if ov.Rounds() != st.Steps || ov.TotalBytes() != st.Bytes {
				t.Fatalf("%+v step %d: overlap split %+v does not partition step stats %+v", cfg, step, ov, st)
			}
		}
		ov, st := e.Report().Overlap, e.Stats()
		e.Close()
		if ov.Rounds() != st.Steps || ov.TotalBytes() != st.Bytes {
			t.Fatalf("%+v: cumulative overlap split %+v does not partition stats %+v", cfg, ov, st)
		}
		if ov.HiddenRounds == 0 || ov.HiddenBytes == 0 {
			t.Fatalf("%+v: nothing hid behind the backward pass: %+v", cfg, ov)
		}
	}
}

// TestOverlapStatsMatchExpected is the closed-form acceptance criterion:
// one clean overlapped step's measured hidden/exposed split must equal
// comm.ExpectedOverlapStats at the configuration's topology exactly.
func TestOverlapStatsMatchExpected(t *testing.T) {
	x, labels, factory := testTask(64)
	var paramElems []int
	for _, p := range factory(1).Params() {
		paramElems = append(paramElems, p.Numel())
	}
	n := factory(1).NumParams()
	for _, bucketElems := range []int{0, n/5 + 1, n/2 + 1, 7} {
		for _, cfg := range overlapConfigs(bucketElems) {
			cfg.Overlap = true
			e := newEngine(cfg, 4, factory)
			if _, err := e.ComputeGradient(x, labels); err != nil {
				t.Fatal(err)
			}
			if err := e.BroadcastWeights(); err != nil {
				t.Fatal(err)
			}
			got := e.StepOverlapStats()
			e.Close()
			h := dist.Flat(cfg.Algo, 4)
			if cfg.Topology != nil {
				h = *cfg.Topology
			}
			if want := comm.ExpectedOverlapStats(h, nil, paramElems, bucketElems); got != want {
				t.Errorf("%+v bucket=%d: measured overlap %+v, want closed form %+v", cfg, bucketElems, got, want)
			}
		}
	}
}

// TestOverlapSingleBucketAllExposed: with the whole gradient in one bucket
// nothing can fire before the backward ends, so the reduce is exposed too.
func TestOverlapSingleBucketAllExposed(t *testing.T) {
	x, labels, factory := testTask(32)
	e := newEngine(dist.Config{Algo: dist.Tree, Overlap: true}, 2, factory)
	defer e.Close()
	if _, err := e.ComputeGradient(x, labels); err != nil {
		t.Fatal(err)
	}
	ov := e.StepOverlapStats()
	if ov.HiddenRounds != 0 || ov.HiddenBytes != 0 {
		t.Fatalf("single bucket hid schedule: %+v", ov)
	}
	if ov.ExposedRounds == 0 || ov.ExposedBytes == 0 {
		t.Fatalf("single bucket recorded nothing: %+v", ov)
	}
}

// TestNoOverlapAllExposed: with Config.Overlap unset the split still
// partitions the stats, with everything on the exposed side.
func TestNoOverlapAllExposed(t *testing.T) {
	x, labels, factory := testTask(32)
	n := factory(1).NumParams()
	e := newEngine(dist.Config{Algo: dist.Ring, BucketElems: n/4 + 1}, 2, factory)
	defer e.Close()
	if _, err := e.ComputeGradient(x, labels); err != nil {
		t.Fatal(err)
	}
	if err := e.BroadcastWeights(); err != nil {
		t.Fatal(err)
	}
	ov, st := e.StepOverlapStats(), e.StepStats()
	if ov.HiddenRounds != 0 || ov.HiddenBytes != 0 {
		t.Fatalf("sequential engine hid schedule: %+v", ov)
	}
	if ov.ExposedRounds != st.Steps || ov.ExposedBytes != st.Bytes {
		t.Fatalf("exposed side %+v does not cover step stats %+v", ov, st)
	}
}

// TestOverlapUnevenAndEmptyShards: the overlap scheduler must handle
// batches that do not divide the shard count and shard counts exceeding the
// batch rows (empty shards never land gradients), staying bit-identical to
// the sequential engine.
func TestOverlapUnevenAndEmptyShards(t *testing.T) {
	for _, tc := range []struct{ batch, shards, workers int }{
		{50, 7, 3}, // uneven shard sizes, uneven worker slots
		{5, 12, 4}, // more shards than batch rows: empty shards
	} {
		x, labels, factory := testTask(tc.batch)
		seq := newEngine(dist.Config{Algo: dist.Tree, Shards: tc.shards, BucketElems: 40}, tc.workers, factory)
		wantLoss, err := seq.ComputeGradient(x, labels)
		if err != nil {
			t.Fatal(err)
		}
		want := flatGrad(seq)
		seq.Close()

		ov := newEngine(dist.Config{Algo: dist.Tree, Shards: tc.shards, BucketElems: 40, Overlap: true}, tc.workers, factory)
		gotLoss, err := ov.ComputeGradient(x, labels)
		if err != nil {
			t.Fatal(err)
		}
		got := flatGrad(ov)
		ov.Close()
		if gotLoss != wantLoss {
			t.Fatalf("B=%d S=%d W=%d: overlap loss differs", tc.batch, tc.shards, tc.workers)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("B=%d S=%d W=%d: overlap changed grad coord %d", tc.batch, tc.shards, tc.workers, i)
			}
		}
	}
}

// TestOverlapWorkerErrorRecovers: a worker failure mid-backward must not
// wedge the overlap scheduler — the step errors out accounting nothing
// (matching the sequential path, even if some buckets fired before the
// failure surfaced) and the engine accepts a corrected step afterwards.
func TestOverlapWorkerErrorRecovers(t *testing.T) {
	x, labels, factory := testTask(32)
	n := factory(1).NumParams()
	e := newEngine(dist.Config{Algo: dist.Ring, BucketElems: n/4 + 1, Overlap: true}, 2, factory)
	defer e.Close()
	if _, err := e.ComputeGradient(x, labels); err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	labels[7] = 99 // out of class range: the loss layer panics
	if _, err := e.ComputeGradient(x, labels); err == nil {
		t.Fatal("expected worker error for out-of-range label")
	}
	if got := e.Stats(); got != before {
		t.Fatalf("failed step polluted the counters: %+v vs %+v", got, before)
	}
	labels[7] = 0
	if _, err := e.ComputeGradient(x, labels); err != nil {
		t.Fatalf("overlap engine unusable after recovered error: %v", err)
	}
}
