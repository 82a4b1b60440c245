package dist_test

import (
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/rng"
)

// TestReduceWithPairwiseIdenticalAcrossAlgorithms: the pairwise-f32 policy
// keeps the collective's core contract — topology choice is pure
// accounting, the reduced bits are identical under all three algorithms.
func TestReduceWithPairwiseIdenticalAcrossAlgorithms(t *testing.T) {
	const workers, n = 6, 5000
	mkBufs := func() [][]float32 {
		r := rng.New(5)
		bufs := make([][]float32, workers)
		for w := range bufs {
			bufs[w] = make([]float32, n)
			for i := range bufs[w] {
				bufs[w][i] = r.NormFloat32()
			}
		}
		return bufs
	}
	var ref []float32
	for _, algo := range algorithms {
		bufs := mkBufs()
		dist.ReduceWith(algo, dist.PairwiseF32, bufs, nil)
		if ref == nil {
			ref = bufs[0]
			continue
		}
		for i := range ref {
			if bufs[0][i] != ref[i] {
				t.Fatalf("%v: pairwise reduction differs at coord %d", algo, i)
			}
		}
	}
	// And it is a different rounding than canonical (the policies are
	// distinct arithmetics, not aliases).
	bufs := mkBufs()
	dist.ReduceWith(dist.Central, dist.CanonicalF64, bufs, nil)
	same := true
	for i := range ref {
		if bufs[0][i] != ref[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("pairwise-f32 and canonical-f64 agree bitwise on random data — policy plumbing is vacuous")
	}
}

// TestPairwiseGradientIndependentOfWorkerCount extends the engine's
// reproducibility contract to the pairwise policy: with the shard count
// pinned, the physical worker count does not change a bit.
func TestPairwiseGradientIndependentOfWorkerCount(t *testing.T) {
	x, labels, factory := testTask(64)
	const shards = 4
	var refGrad []float32
	var refLoss float64
	for _, workers := range []int{1, 2, 4} {
		e := newEngine(dist.Config{Algo: dist.Ring, Shards: shards, Reduction: dist.PairwiseF32}, workers, factory)
		loss, err := e.ComputeGradient(x, labels)
		if err != nil {
			t.Fatal(err)
		}
		grad := flatGrad(e)
		e.Close()
		if refGrad == nil {
			refGrad, refLoss = grad, loss
			continue
		}
		if loss != refLoss {
			t.Fatalf("W=%d: loss %v differs bitwise from W=1's %v", workers, loss, refLoss)
		}
		for i := range grad {
			if grad[i] != refGrad[i] {
				t.Fatalf("W=%d: pairwise grad coord %d differs bitwise from W=1", workers, i)
			}
		}
	}
}

// TestPairwiseBitIdenticalAcrossTopologiesBucketsOverlap: under the
// pairwise policy one shard split reduces to the same bits whatever the
// topology, the bucket layout, or whether the reductions fire inside the
// backward pass — the full invariance matrix of the acceptance criteria.
func TestPairwiseBitIdenticalAcrossTopologiesBucketsOverlap(t *testing.T) {
	x, labels, factory := testTask(64)
	hier := dist.NewHierarchy(2, 2)
	configs := []struct {
		label   string
		workers int
		cfg     dist.Config
	}{
		{"flat central", 4, dist.Config{Algo: dist.Central, Shards: 4, Reduction: dist.PairwiseF32}},
		{"flat tree", 4, dist.Config{Algo: dist.Tree, Shards: 4, Reduction: dist.PairwiseF32}},
		{"flat ring", 4, dist.Config{Algo: dist.Ring, Shards: 4, Reduction: dist.PairwiseF32}},
		{"hierarchical", 4, dist.Config{Topology: &hier, Shards: 4, Reduction: dist.PairwiseF32}},
		{"two workers", 2, dist.Config{Algo: dist.Ring, Shards: 4, Reduction: dist.PairwiseF32}},
		{"small buckets", 4, dist.Config{Algo: dist.Ring, Shards: 4, BucketElems: 33, Reduction: dist.PairwiseF32}},
		{"overlap", 4, dist.Config{Algo: dist.Ring, Shards: 4, BucketElems: 64, Overlap: true, Reduction: dist.PairwiseF32}},
		{"overlap hier", 4, dist.Config{Topology: &hier, Shards: 4, BucketElems: 64, Overlap: true, Reduction: dist.PairwiseF32}},
	}
	var ref []float32
	for _, tc := range configs {
		e := newEngine(tc.cfg, tc.workers, factory)
		if _, err := e.ComputeGradient(x, labels); err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		grad := flatGrad(e)
		e.Close()
		if ref == nil {
			ref = grad
			continue
		}
		for i := range grad {
			if grad[i] != ref[i] {
				t.Fatalf("%s: pairwise grad coord %d differs from reference config", tc.label, i)
			}
		}
	}
}

// TestPairwiseFaultRecoveryExact: fault injection stays value-free under
// the pairwise policy — a faulty run recovers to the bitwise result of a
// clean one, with only the schedule accounting differing.
func TestPairwiseFaultRecoveryExact(t *testing.T) {
	x, labels, factory := testTask(64)
	clean := newEngine(dist.Config{Algo: dist.Tree, Shards: 4, Reduction: dist.PairwiseF32}, 4, factory)
	if _, err := clean.ComputeGradient(x, labels); err != nil {
		t.Fatal(err)
	}
	want := flatGrad(clean)
	clean.Close()

	faulty := newEngine(dist.Config{
		Algo: dist.Tree, Shards: 4, Reduction: dist.PairwiseF32,
		Faults: &dist.FaultPlan{Seed: 9, DropRate: 0.5, StallRate: 0.5},
	}, 4, factory)
	defer faulty.Close()
	if _, err := faulty.ComputeGradient(x, labels); err != nil {
		t.Fatal(err)
	}
	got := flatGrad(faulty)
	if s := faulty.Stats(); s.Retries == 0 && s.Stalls == 0 {
		t.Fatal("fault plan injected nothing — the exactness check is vacuous")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("faulty pairwise run diverged at coord %d", i)
		}
	}
}

// TestProfileStatsSumToStepWall is the profiler's acceptance criterion:
// the five phase buckets of a profiled step sum exactly to the measured
// step wall time, and the compute phases are actually populated. The 1-bit
// codec transforms payloads in place, so its steps have a codec phase; the
// fp16 wire rounds inside the reduce, so its steps have none, and the
// rounding's time is reduce time.
func TestProfileStatsSumToStepWall(t *testing.T) {
	x, labels, factory := testTask(64)
	for _, tc := range []struct {
		codec     dist.Codec
		codecPass bool
	}{
		{dist.NewOneBitCodec(), true},
		{dist.FP16Codec{}, false},
	} {
		e := newEngine(dist.Config{
			Algo: dist.Ring, Codec: tc.codec, Profile: true,
		}, 2, factory)
		var cumulative dist.ProfileStats
		for step := 0; step < 3; step++ {
			if _, err := e.ComputeGradient(x, labels); err != nil {
				t.Fatal(err)
			}
			if err := e.BroadcastWeights(); err != nil {
				t.Fatal(err)
			}
			p := e.StepProfile()
			name := tc.codec.Name()
			if p.WallNS <= 0 {
				t.Fatalf("%s step %d: no wall time profiled: %+v", name, step, p)
			}
			if p.Accounted() != p.WallNS {
				t.Fatalf("%s step %d: phases sum to %d ns, wall is %d ns", name, step, p.Accounted(), p.WallNS)
			}
			if p.GemmNS <= 0 {
				t.Fatalf("%s step %d: GEMM phase empty: %+v", name, step, p)
			}
			if tc.codecPass && p.CodecNS <= 0 {
				t.Fatalf("%s step %d: codec phase empty despite an in-place codec: %+v", name, step, p)
			}
			if !tc.codecPass && p.CodecNS != 0 {
				t.Fatalf("%s step %d: codec phase %d ns, but the fp16 wire rounds inside the reduce: %+v", name, step, p.CodecNS, p)
			}
			if p.ReduceNS <= 0 {
				t.Fatalf("%s step %d: reduce phase empty: %+v", name, step, p)
			}
			cumulative.Add(p)
		}
		if e.Profile() != cumulative {
			t.Fatalf("%s: cumulative profile %+v != sum of step profiles %+v", tc.codec.Name(), e.Profile(), cumulative)
		}
		e.Close()
	}
}

// TestLocalProfileWithinMeasuredWall: the step template owns the only
// profile window, so the weight broadcast a sync round issues is attributed
// once — the profiled wall of a local-SGD run can never exceed the wall
// measured around the calls. (With a window of its own nested in the step's,
// the broadcast used to be counted twice.) The MLP is wide so the broadcast
// is a solid share of every step.
func TestLocalProfileWithinMeasuredWall(t *testing.T) {
	x, labels, _ := testTask(64)
	wide := func(seed uint64) *nn.Network {
		return models.NewMLP(models.MicroConfig{Classes: 4, InC: 3, InH: 8, InW: 8, Width: 64, Seed: seed})
	}
	e := localEngine(dist.Config{Algo: dist.Ring, SyncEvery: 1, Profile: true}, 4, wide)
	defer e.Close()
	var profiled int64
	start := time.Now()
	for step := 0; step < 10; step++ {
		if _, err := e.LocalStep(x, labels, 0.05); err != nil {
			t.Fatal(err)
		}
		profiled += e.StepProfile().WallNS
	}
	wall := time.Since(start).Nanoseconds()
	if profiled > wall {
		t.Fatalf("step profiles sum to %d ns of wall, the calls took %d ns (%.3fx)", profiled, wall, float64(profiled)/float64(wall))
	}
	if p := e.Profile(); p.WallNS != profiled || p.Accounted() != p.WallNS {
		t.Fatalf("cumulative profile %+v: want wall %d ns and phases summing to it", p, profiled)
	}
}

// TestProfileOffLeavesStatsZero: without Config.Profile the engine reports
// zero profiles and pays no accounting.
func TestProfileOffLeavesStatsZero(t *testing.T) {
	x, labels, factory := testTask(32)
	e := newEngine(dist.Config{Algo: dist.Ring}, 2, factory)
	defer e.Close()
	if _, err := e.ComputeGradient(x, labels); err != nil {
		t.Fatal(err)
	}
	if e.Profile() != (dist.ProfileStats{}) || e.StepProfile() != (dist.ProfileStats{}) {
		t.Fatalf("unprofiled engine accumulated profile stats: %+v", e.Profile())
	}
}

// TestReductionString pins the flag/report names.
func TestReductionString(t *testing.T) {
	if dist.CanonicalF64.String() != "canonical-f64" || dist.PairwiseF32.String() != "pairwise-f32" {
		t.Fatalf("unexpected Reduction names: %v, %v", dist.CanonicalF64, dist.PairwiseF32)
	}
}

// TestCanonicalUnchangedBySeed guards the refactor onto the kernel layer:
// the default policy must still match the historical per-coordinate
// float64 loop bit for bit (the engine-level twin of the kernel's
// bit-compat test).
func TestCanonicalUnchangedBySeed(t *testing.T) {
	const workers, n = 5, 3000
	r := rng.New(8)
	bufs := make([][]float32, workers)
	want := make([]float64, n)
	for w := range bufs {
		bufs[w] = make([]float32, n)
		for i := range bufs[w] {
			bufs[w][i] = r.NormFloat32()
		}
	}
	for i := 0; i < n; i++ {
		acc := float64(bufs[0][i])
		for w := 1; w < workers; w++ {
			acc += float64(bufs[w][i])
		}
		want[i] = acc
	}
	dist.Reduce(dist.Tree, bufs, nil)
	for i := range want {
		if bufs[0][i] != float32(want[i]) {
			t.Fatalf("canonical reduction drifted from the seed semantics at coord %d", i)
		}
	}
}
