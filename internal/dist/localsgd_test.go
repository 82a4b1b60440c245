package dist_test

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/opt"
)

// flatWeights flattens a network's parameters.
func flatWeights(n *nn.Network) []float32 {
	var out []float32
	for _, p := range n.Params() {
		out = append(out, p.W.Data...)
	}
	return out
}

// localEngine builds a local-SGD engine plus one plain-SGD stepper per
// replica (no momentum: a deterministic, state-free local optimizer),
// using the same replica seeds as newEngine.
func localEngine(cfg dist.Config, workers int, factory func(uint64) *nn.Network) *dist.Engine {
	replicas := make([]*nn.Network, workers)
	steppers := make([]dist.Stepper, workers)
	for i := range replicas {
		replicas[i] = factory(1 + uint64(i)*7919)
		steppers[i] = opt.NewSGD(replicas[i].Params(), opt.SGDConfig{})
	}
	e := dist.NewEngine(cfg, replicas)
	e.SetLocalSteppers(steppers)
	return e
}

// TestLocalSGDSyncEveryOneConfigInert: Config.SyncEvery = 1 is pure
// configuration — an engine driven through the every-step gradient path
// produces bit-identical gradients, weights and counters whether or not
// the field is set, across topologies, overlap and reduction arithmetic.
func TestLocalSGDSyncEveryOneConfigInert(t *testing.T) {
	x, labels, factory := testTask(64)
	hier := dist.NewHierarchy(2, 2)
	cases := []struct {
		name string
		cfg  dist.Config
	}{
		{"central", dist.Config{Algo: dist.Central}},
		{"tree", dist.Config{Algo: dist.Tree}},
		{"ring", dist.Config{Algo: dist.Ring}},
		{"hier", dist.Config{Topology: &hier}},
		{"ring/overlap", dist.Config{Algo: dist.Ring, Overlap: true, BucketElems: 64}},
		{"ring/pairwise", dist.Config{Algo: dist.Ring, Reduction: dist.PairwiseF32}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(cfg dist.Config) ([]float32, dist.CommStats, float64) {
				e := newEngine(cfg, 4, factory)
				defer e.Close()
				var loss float64
				for s := 0; s < 3; s++ {
					l, err := e.ComputeGradient(x, labels)
					if err != nil {
						t.Fatal(err)
					}
					loss += l
					if err := e.BroadcastWeights(); err != nil {
						t.Fatal(err)
					}
				}
				return flatGrad(e), e.Stats(), loss
			}
			base := tc.cfg
			tagged := tc.cfg
			tagged.SyncEvery = 1
			g0, s0, l0 := run(base)
			g1, s1, l1 := run(tagged)
			if l0 != l1 {
				t.Fatalf("loss %v with SyncEvery=1 vs %v without", l1, l0)
			}
			if s0 != s1 {
				t.Fatalf("stats %+v with SyncEvery=1 vs %+v without", s1, s0)
			}
			for i := range g0 {
				if g0[i] != g1[i] {
					t.Fatalf("grad coord %d: %v with SyncEvery=1 vs %v without", i, g1[i], g0[i])
				}
			}
		})
	}
}

// TestLocalSGDCountersMatchClosedForm drives LocalStep for H in {1,2,4,8}
// across the flat topologies and checks the measured counters equal
// comm.ExpectedLocalSGDStats counter-for-counter, with bytes scaling as
// exactly 1/H against the measured every-step gradient path.
func TestLocalSGDCountersMatchClosedForm(t *testing.T) {
	x, labels, factory := testTask(64)
	const workers, steps = 4, 8
	for _, algo := range []dist.Algorithm{dist.Central, dist.Tree, dist.Ring} {
		// The every-step gradient path is the H=1 comm baseline.
		base := newEngine(dist.Config{Algo: algo}, workers, factory)
		for s := 0; s < steps; s++ {
			if _, err := base.ComputeGradient(x, labels); err != nil {
				t.Fatal(err)
			}
			if err := base.BroadcastWeights(); err != nil {
				t.Fatal(err)
			}
		}
		baseStats := base.Stats()
		nelems := flatLen(base)
		base.Close()
		for _, h := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%v/H%d", algo, h), func(t *testing.T) {
				e := localEngine(dist.Config{Algo: algo, SyncEvery: h}, workers, factory)
				defer e.Close()
				for s := 0; s < steps; s++ {
					if _, err := e.LocalStep(x, labels, 0.05); err != nil {
						t.Fatal(err)
					}
				}
				want := comm.ExpectedLocalSGDStats(algo, workers, h, steps, nelems, 0, nil)
				// NewEngine's initial weight sync is the same broadcast in
				// both paths; compare the training-step counters only.
				got := subStats(e.Stats(), initialSync(algo, workers, nelems))
				wantBase := subStats(baseStats, initialSync(algo, workers, nelems))
				if got != want {
					t.Fatalf("H=%d measured %+v, closed form %+v", h, got, want)
				}
				if h > 1 && got.Bytes*int64(h) != wantBase.Bytes {
					t.Fatalf("H=%d bytes %d: want exact 1/H of the every-step %d", h, got.Bytes, wantBase.Bytes)
				}
				lsgd := e.LocalSGD()
				if lsgd.LocalSteps != steps || lsgd.SyncRounds != int64(steps/h) || lsgd.IntraRounds != 0 {
					t.Fatalf("H=%d local-SGD counters %+v", h, lsgd)
				}
			})
		}
	}
}

// flatLen returns the per-replica coordinate count.
func flatLen(e *dist.Engine) int {
	n := 0
	for _, p := range e.Master().Params() {
		n += p.Numel()
	}
	return n
}

// initialSync returns the counters NewEngine's construction-time weight
// broadcast recorded, so tests can compare training-step traffic alone.
func initialSync(algo dist.Algorithm, p, nelems int) dist.CommStats {
	return dist.BroadcastSchedule(algo, p, 4*int64(nelems))
}

// subStats subtracts b from a field by field.
func subStats(a, b dist.CommStats) dist.CommStats {
	return dist.CommStats{
		Messages: a.Messages - b.Messages,
		Bytes:    a.Bytes - b.Bytes,
		Steps:    a.Steps - b.Steps,
		Retries:  a.Retries - b.Retries,
		Stalls:   a.Stalls - b.Stalls,
	}
}

// TestLocalSGDHierarchicalCounters checks the per-tier attribution of a
// hierarchical local-SGD run — full rounds every H steps, intra-only
// rounds every Hi steps in between — against ExpectedLocalSGDTierStats.
func TestLocalSGDHierarchicalCounters(t *testing.T) {
	x, labels, factory := testTask(64)
	hier := dist.NewHierarchy(2, 2)
	const steps = 8
	for _, tc := range []struct{ h, hi int }{{2, 0}, {4, 2}, {8, 2}, {4, 4}} {
		t.Run(fmt.Sprintf("H%d-Hi%d", tc.h, tc.hi), func(t *testing.T) {
			e := localEngine(dist.Config{Topology: &hier, SyncEvery: tc.h, IntraSyncEvery: tc.hi}, 4, factory)
			defer e.Close()
			for s := 0; s < steps; s++ {
				if _, err := e.LocalStep(x, labels, 0.05); err != nil {
					t.Fatal(err)
				}
			}
			nelems := flatLen(e)
			want := comm.ExpectedLocalSGDTierStats(hier, nil, tc.h, tc.hi, steps, nelems, 0, nil)
			got := e.Report().TierComm
			// Drop the construction-time broadcast from the intra/inter split.
			init := dist.HierBroadcastSchedule(hier, nil, 4*int64(nelems))
			got.Intra = subStats(got.Intra, init.Intra)
			got.Inter = subStats(got.Inter, init.Inter)
			if got != want {
				t.Fatalf("measured tiers %+v, closed form %+v", got, want)
			}
			if total, flat := got.Total(), subStats(e.Stats(), init.Total()); total != flat {
				t.Fatalf("tier total %+v != flat stats %+v", total, flat)
			}
			lsgd := e.LocalSGD()
			wantIntra := comm.LocalSGDIntraRounds(steps, tc.h, tc.hi)
			if lsgd.SyncRounds != int64(steps/tc.h) || lsgd.IntraRounds != wantIntra {
				t.Fatalf("local-SGD counters %+v, want %d sync and %d intra rounds", lsgd, steps/tc.h, wantIntra)
			}
		})
	}
}

// TestLocalSGDCodecCounters: a codec prices the averaging rounds' reduce
// payloads through its wire format — fp16 halves the reduce bytes while
// the weight broadcast stays raw float32 — and the closed form follows
// through the WireSizer.
func TestLocalSGDCodecCounters(t *testing.T) {
	x, labels, factory := testTask(64)
	const workers, steps, h = 4, 8, 4
	e := localEngine(dist.Config{Algo: dist.Ring, Codec: dist.FP16Codec{}, SyncEvery: h}, workers, factory)
	defer e.Close()
	for s := 0; s < steps; s++ {
		if _, err := e.LocalStep(x, labels, 0.05); err != nil {
			t.Fatal(err)
		}
	}
	nelems := flatLen(e)
	want := comm.ExpectedLocalSGDStats(dist.Ring, workers, h, steps, nelems, 0, comm.FP16Wire)
	got := subStats(e.Stats(), initialSync(dist.Ring, workers, nelems))
	if got != want {
		t.Fatalf("fp16 measured %+v, closed form %+v", got, want)
	}
}

// TestLocalSGDNegativeControl: H=4 is *not* the synchronous algorithm —
// the final master weights must differ bitwise from an every-step run with
// the same data, schedule and optimizer arithmetic. (H=1 inertness plus
// this proves SyncEvery actually changes the training dynamics.)
func TestLocalSGDNegativeControl(t *testing.T) {
	x, labels, factory := testTask(64)
	const workers, steps = 4, 8

	sync := newEngine(dist.Config{Algo: dist.Ring}, workers, factory)
	master := opt.NewSGD(sync.Master().Params(), opt.SGDConfig{})
	for s := 0; s < steps; s++ {
		if _, err := sync.ComputeGradient(x, labels); err != nil {
			t.Fatal(err)
		}
		master.Step(0.05)
		if err := sync.BroadcastWeights(); err != nil {
			t.Fatal(err)
		}
	}
	wSync := flatWeights(sync.Master())
	sync.Close()

	local := localEngine(dist.Config{Algo: dist.Ring, SyncEvery: 4}, workers, factory)
	for s := 0; s < steps; s++ {
		if _, err := local.LocalStep(x, labels, 0.05); err != nil {
			t.Fatal(err)
		}
	}
	wLocal := flatWeights(local.Master())
	local.Close()

	same := true
	for i := range wSync {
		if wSync[i] != wLocal[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("H=4 produced bitwise identical weights to the every-step run: local SGD is not engaging")
	}
}

// TestLocalSGDDeterministic: two identical local-SGD runs are bitwise
// equal in weights, loss and counters — at every H, with and without
// overlap-mode gradient flattening.
func TestLocalSGDDeterministic(t *testing.T) {
	x, labels, factory := testTask(64)
	for _, cfg := range []dist.Config{
		{Algo: dist.Ring, SyncEvery: 3},
		{Algo: dist.Ring, SyncEvery: 3, Overlap: true, BucketElems: 64},
		{Algo: dist.Ring, SyncEvery: 3, Reduction: dist.PairwiseF32},
	} {
		run := func() ([]float32, float64, dist.CommStats) {
			e := localEngine(cfg, 4, factory)
			defer e.Close()
			var loss float64
			for s := 0; s < 7; s++ {
				l, err := e.LocalStep(x, labels, 0.05)
				if err != nil {
					t.Fatal(err)
				}
				loss += l
			}
			return flatWeights(e.Master()), loss, e.Stats()
		}
		w0, l0, s0 := run()
		w1, l1, s1 := run()
		if l0 != l1 || s0 != s1 {
			t.Fatalf("reruns diverged: loss %v vs %v, stats %+v vs %+v", l0, l1, s0, s1)
		}
		for i := range w0 {
			if w0[i] != w1[i] {
				t.Fatalf("rerun weight coord %d: %v vs %v", i, w0[i], w1[i])
			}
		}
	}
}

// TestLocalSGDOverlapAllExposed: under Config.Overlap nothing hides in
// local mode — sync rounds run at the window barrier, after the backward
// pass is long finished, so every byte is exposed. This is the documented
// overlap interaction: 1/H fewer bytes, none of them hideable.
func TestLocalSGDOverlapAllExposed(t *testing.T) {
	x, labels, factory := testTask(64)
	e := localEngine(dist.Config{Algo: dist.Ring, SyncEvery: 2, Overlap: true, BucketElems: 64}, 4, factory)
	defer e.Close()
	for s := 0; s < 6; s++ {
		if _, err := e.LocalStep(x, labels, 0.05); err != nil {
			t.Fatal(err)
		}
	}
	ov := e.Report().Overlap
	if ov.HiddenRounds != 0 || ov.HiddenBytes != 0 {
		t.Fatalf("local mode hid traffic: %+v", ov)
	}
	if st := e.Stats(); ov.ExposedBytes != st.Bytes || ov.Rounds() != st.Steps {
		t.Fatalf("overlap split %+v does not cover stats %+v", ov, st)
	}
}

// TestLocalSGDMembershipBoundaries: membership events land on sync
// boundaries only. A worker dead from mid-window advances the eviction
// clock once per sync round (not per step), and a join scheduled
// mid-window defers to the next window start.
func TestLocalSGDMembershipBoundaries(t *testing.T) {
	x, labels, factory := testTask(64)
	const h = 4

	t.Run("evict", func(t *testing.T) {
		e := localEngine(dist.Config{
			Algo:      dist.Ring,
			SyncEvery: h,
			Faults:    &dist.FaultPlan{Dead: map[int]int64{2: 1}},
			Elastic:   &dist.Elastic{EvictAfter: 1},
		}, 4, factory)
		defer e.Close()
		for s := 0; s < 2*h; s++ {
			if _, err := e.LocalStep(x, labels, 0.05); err != nil {
				t.Fatal(err)
			}
			world := e.LiveWorkers()
			if s < h-1 && world != 4 {
				t.Fatalf("step %d: world %d before the boundary, want 4", s, world)
			}
			if s >= h-1 && world != 3 {
				t.Fatalf("step %d: world %d after the boundary, want 3", s, world)
			}
		}
		m := e.Membership()
		if m.Evictions != 1 || len(m.Events) != 1 || m.Events[0].Step != h {
			t.Fatalf("membership %+v: want one eviction effective at step %d", m, h)
		}
		if m.StepsAtWorld[4] != h || m.StepsAtWorld[3] != h {
			t.Fatalf("world timeline %v: want %d steps at 4 and %d at 3", m.StepsAtWorld, h, h)
		}
	})

	t.Run("join-defers-to-boundary", func(t *testing.T) {
		e := localEngine(dist.Config{
			Algo:      dist.Ring,
			SyncEvery: h,
			Faults:    &dist.FaultPlan{Join: map[int]int64{3: 2}}, // mid-window
			Elastic:   &dist.Elastic{},
		}, 4, factory)
		defer e.Close()
		for s := 0; s < 2*h; s++ {
			if _, err := e.LocalStep(x, labels, 0.05); err != nil {
				t.Fatal(err)
			}
			world := e.LiveWorkers()
			if s < h && world != 3 {
				t.Fatalf("step %d: world %d, the join must wait for the boundary", s, world)
			}
			if s >= h && world != 4 {
				t.Fatalf("step %d: world %d, the join should have landed at the window start", s, world)
			}
		}
		m := e.Membership()
		if m.Joins != 1 || len(m.Events) != 1 || m.Events[0].Step != h || !m.Events[0].Join {
			t.Fatalf("membership %+v: want one join effective at step %d", m, h)
		}
	})
}

// TestLocalSGDPostEvictionCounters: after an eviction, a full window's
// traffic equals the closed form at the shrunken world — membership
// surgery re-prices the schedules exactly like the gradient path.
func TestLocalSGDPostEvictionCounters(t *testing.T) {
	x, labels, factory := testTask(64)
	const h = 4
	e := localEngine(dist.Config{
		Algo:      dist.Ring,
		SyncEvery: h,
		Faults:    &dist.FaultPlan{Dead: map[int]int64{3: 0}},
		Elastic:   &dist.Elastic{EvictAfter: 1},
	}, 4, factory)
	defer e.Close()
	for s := 0; s < h; s++ { // first window: worker 3 dies, evicted at the boundary
		if _, err := e.LocalStep(x, labels, 0.05); err != nil {
			t.Fatal(err)
		}
	}
	if e.LiveWorkers() != 3 {
		t.Fatalf("world %d after the first window, want 3", e.LiveWorkers())
	}
	before := e.Stats()
	for s := 0; s < h; s++ { // second window runs whole at P=3
		if _, err := e.LocalStep(x, labels, 0.05); err != nil {
			t.Fatal(err)
		}
	}
	got := subStats(e.Stats(), before)
	want := comm.ExpectedLocalSGDStats(dist.Ring, 3, h, h, flatLen(e), 0, nil)
	if got != want {
		t.Fatalf("post-eviction window %+v, closed form at P=3 %+v", got, want)
	}
}
