package dist_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// stepOnce runs one full training step on the engine: gradient, a toy
// weight update so successive steps differ, and the weight broadcast.
func stepOnce(t *testing.T, e *dist.Engine, x *tensor.Tensor, labels []int) float64 {
	t.Helper()
	loss, err := e.ComputeGradient(x, labels)
	if err != nil {
		t.Fatal(err)
	}
	addScaledGrads(e.Master().Params(), -0.05)
	if err := e.BroadcastWeights(); err != nil {
		t.Fatal(err)
	}
	return loss
}

// TestEvictionRebalanceIdentity is the elastic determinism contract at
// engine level: after a persistently dead worker is evicted, every
// subsequent step is bit-identical to a fresh P−1 engine started from the
// rebalanced weights — the eviction left no numerical trace beyond the
// world size.
func TestEvictionRebalanceIdentity(t *testing.T) {
	x, labels, factory := testTask(64)
	plan := &dist.FaultPlan{Dead: map[int]int64{2: 2}}
	elastic := newEngine(dist.Config{
		Algo: dist.Ring, Faults: plan, Elastic: &dist.Elastic{EvictAfter: 2},
	}, 4, factory)
	defer elastic.Close()

	// Steps 0-1 healthy, steps 2-3 with worker 2 dead (failed recoveries),
	// eviction at the end of step 3.
	for step := 0; step < 4; step++ {
		stepOnce(t, elastic, x, labels)
	}
	if got := elastic.LiveWorkers(); got != 3 {
		t.Fatalf("world size after eviction = %d, want 3", got)
	}
	if got := elastic.Shards(); got != 3 {
		t.Fatalf("shard count after eviction = %d, want 3 (world-tracking split)", got)
	}

	// A fresh 3-worker engine seeded from the rebalanced weights.
	replicas := make([]*nn.Network, 3)
	for i := range replicas {
		replicas[i] = factory(100 + uint64(i)*7919)
	}
	replicas[0].CopyWeightsFrom(elastic.Master())
	fresh := dist.NewEngine(dist.Config{Algo: dist.Ring}, replicas)
	defer fresh.Close()

	for step := 4; step < 8; step++ {
		gotLoss := stepOnce(t, elastic, x, labels)
		wantLoss := stepOnce(t, fresh, x, labels)
		if gotLoss != wantLoss {
			t.Fatalf("step %d: degraded loss %v differs bitwise from fresh P-1 loss %v", step, gotLoss, wantLoss)
		}
		got, want := flatGrad(elastic), flatGrad(fresh)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d: grad coord %d differs between degraded and fresh P-1 run", step, i)
			}
		}
	}
}

// TestElasticBitIdenticalAcrossTopologies: the same fault plan and eviction
// policy produce bitwise-identical trajectories — and the same membership
// timeline — whichever topology carries the schedule.
func TestElasticBitIdenticalAcrossTopologies(t *testing.T) {
	x, labels, factory := testTask(64)
	hier := dist.NewHierarchy(2, 2)
	run := func(algo dist.Algorithm, topo *dist.Hierarchy) ([]float64, []float32, dist.MembershipStats) {
		e := newEngine(dist.Config{
			Algo: algo, Topology: topo,
			Faults:  &dist.FaultPlan{Seed: 5, DropRate: 0.2, StallRate: 0.2, Dead: map[int]int64{3: 1}},
			Elastic: &dist.Elastic{EvictAfter: 2},
		}, 4, factory)
		defer e.Close()
		var losses []float64
		for step := 0; step < 6; step++ {
			losses = append(losses, stepOnce(t, e, x, labels))
		}
		return losses, flatGrad(e), e.Membership()
	}
	refLoss, refGrad, refM := run(dist.Central, nil)
	for _, variant := range []struct {
		name string
		algo dist.Algorithm
		topo *dist.Hierarchy
	}{{"tree", dist.Tree, nil}, {"ring", dist.Ring, nil}, {"hier", dist.Tree, &hier}} {
		losses, grad, m := run(variant.algo, variant.topo)
		for s := range refLoss {
			if losses[s] != refLoss[s] {
				t.Fatalf("%s: step %d loss differs bitwise across topologies", variant.name, s)
			}
		}
		for i := range refGrad {
			if grad[i] != refGrad[i] {
				t.Fatalf("%s: grad coord %d differs bitwise across topologies", variant.name, i)
			}
		}
		if m.Evictions != refM.Evictions || m.Timeline() != refM.Timeline() {
			t.Fatalf("%s: membership timeline %q (evictions %d) differs from %q (%d)",
				variant.name, m.Timeline(), m.Evictions, refM.Timeline(), refM.Evictions)
		}
	}
	if refM.Evictions != 1 {
		t.Fatalf("expected exactly one eviction, got %d", refM.Evictions)
	}
}

// TestHierarchyTierShrinkOnEviction: a node losing all its workers leaves
// the inter tier — post-eviction steps move no leader-exchange traffic and
// match the degraded closed form exactly.
func TestHierarchyTierShrinkOnEviction(t *testing.T) {
	x, labels, factory := testTask(64)
	h := dist.NewHierarchy(2, 2)
	e := newEngine(dist.Config{
		Topology: &h,
		Faults:   &dist.FaultPlan{Dead: map[int]int64{2: 1, 3: 1}},
		Elastic:  &dist.Elastic{EvictAfter: 2},
	}, 4, factory)
	defer e.Close()
	payload := int64(4 * factory(1).NumParams())

	// Both of node 1's workers die at step 1 and are evicted together at
	// the end of step 2, shrinking the inter tier from 2 nodes to 1.
	for step := 0; step < 3; step++ {
		stepOnce(t, e, x, labels)
	}
	if got := e.LiveWorkers(); got != 2 {
		t.Fatalf("world size = %d, want 2 (node 1 fully evicted)", got)
	}
	stepOnce(t, e, x, labels) // first clean step of the degraded fleet
	tiers := e.StepTierStats()
	if tiers.Inter != (dist.CommStats{}) {
		t.Fatalf("inter tier still carries traffic after its only peer node left: %+v", tiers.Inter)
	}
	want := comm.ExpectedTierStats(h, []int{2}, payload)
	if tiers != want {
		t.Fatalf("degraded tier stats %+v, want closed form %+v", tiers, want)
	}
}

// TestOverlapCoverMapRebuildAfterEviction: the overlap scheduler survives
// an eviction — the evicted replica keeps its notify hook but, without a
// goroutine, never runs Backward; the bucket countdowns, arithmetic over
// the parameter offsets, start each step at the surviving shard count — so
// bucket reductions keep firing inside the backward pass with values
// bit-identical to the sequential degraded engine.
func TestOverlapCoverMapRebuildAfterEviction(t *testing.T) {
	x, labels, _ := testTask(60)
	// A convnet rather than the test MLP: its first conv is tiny, so most
	// buckets do not cover parameter 0 and stay overlap-eligible.
	factory := func(seed uint64) *nn.Network {
		return models.NewMicroAlexNet(models.MicroConfig{Classes: 4, InH: 8, InW: 8, Width: 4, Seed: seed})
	}
	n := factory(1).NumParams()
	mk := func(overlap bool) *dist.Engine {
		return newEngine(dist.Config{
			Algo: dist.Ring, BucketElems: n/4 + 1, Overlap: overlap,
			Faults:  &dist.FaultPlan{Dead: map[int]int64{1: 1}},
			Elastic: &dist.Elastic{EvictAfter: 1},
		}, 3, factory)
	}
	ov, seq := mk(true), mk(false)
	defer ov.Close()
	defer seq.Close()
	for step := 0; step < 5; step++ {
		ovLoss := stepOnce(t, ov, x, labels)
		seqLoss := stepOnce(t, seq, x, labels)
		if ovLoss != seqLoss {
			t.Fatalf("step %d: overlap loss %v differs from sequential %v", step, ovLoss, seqLoss)
		}
		got, want := flatGrad(ov), flatGrad(seq)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d: overlap changed grad coord %d after eviction", step, i)
			}
		}
	}
	if ov.LiveWorkers() != 2 {
		t.Fatalf("world size = %d, want 2", ov.LiveWorkers())
	}
	post := ov.StepOverlapStats()
	if post.HiddenRounds == 0 {
		t.Fatalf("post-eviction overlap scheduler hid nothing: %+v", post)
	}
	if seqStats := seq.StepStats(); post.Rounds() != seqStats.Steps || post.TotalBytes() != seqStats.Bytes {
		t.Fatalf("post-eviction overlap split %+v does not cover the sequential schedule %+v", post, seqStats)
	}
}

// TestWorkerDeadErrorWithoutElasticity pins the no-forever-retry fix: with
// elasticity off, a permanently dead worker surfaces a typed error from the
// step loop instead of being recovered in place every step.
func TestWorkerDeadErrorWithoutElasticity(t *testing.T) {
	x, labels, factory := testTask(32)
	e := newEngine(dist.Config{
		Faults: &dist.FaultPlan{Dead: map[int]int64{1: 2}},
	}, 2, factory)
	defer e.Close()
	for step := 0; step < 2; step++ {
		if _, err := e.ComputeGradient(x, labels); err != nil {
			t.Fatalf("step %d before the death: %v", step, err)
		}
	}
	_, err := e.ComputeGradient(x, labels)
	var dead *dist.WorkerDeadError
	if !errors.As(err, &dead) {
		t.Fatalf("expected *WorkerDeadError at the death step, got %v", err)
	}
	if dead.Worker != 1 || dead.Step != 2 {
		t.Fatalf("WorkerDeadError{Worker: %d, Step: %d}, want worker 1 at step 2", dead.Worker, dead.Step)
	}
}

// TestHierarchyNodeDeadErrorWithoutElasticity is the whole-node variant of
// the no-forever-retry contract: when every worker of a hierarchy node dies
// with elasticity off, the step must surface the same typed *WorkerDeadError
// instead of the intra tier retrying forever for a leader that can never
// form. The goroutine-plus-timeout guard turns a regression back into a
// hang into a fast, explicit failure rather than a test-suite deadlock.
func TestHierarchyNodeDeadErrorWithoutElasticity(t *testing.T) {
	x, labels, factory := testTask(32)
	h := dist.NewHierarchy(2, 2)
	e := newEngine(dist.Config{
		Topology: &h,
		Faults:   &dist.FaultPlan{Dead: map[int]int64{2: 1, 3: 1}},
	}, 4, factory)
	defer e.Close()

	if _, err := e.ComputeGradient(x, labels); err != nil {
		t.Fatalf("healthy step 0: %v", err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := e.ComputeGradient(x, labels)
		done <- err
	}()
	select {
	case err := <-done:
		var dead *dist.WorkerDeadError
		if !errors.As(err, &dead) {
			t.Fatalf("expected *WorkerDeadError when node 1 died wholesale, got %v", err)
		}
		if dead.Step != 1 || (dead.Worker != 2 && dead.Worker != 3) {
			t.Fatalf("WorkerDeadError{Worker: %d, Step: %d}, want one of node 1's workers {2, 3} at step 1",
				dead.Worker, dead.Step)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("step with a wholly dead hierarchy node hung instead of returning *WorkerDeadError")
	}

	// The engine is still usable for inspection after the refusal: the
	// typed error is a report, not a crash.
	if got := e.LiveWorkers(); got != 4 {
		t.Fatalf("world size after refused step = %d, want 4 (nobody was evicted without Elastic)", got)
	}
}

// TestUnevenSpansRebalanceSmallWorld: rebalancing at small P with a batch
// that divides neither world size still satisfies the identity contract —
// data.Spans' uneven split after eviction matches a fresh small engine's.
func TestUnevenSpansRebalanceSmallWorld(t *testing.T) {
	x, labels, factory := testTask(50) // 50 rows: 17/17/16 at P=3, 25/25 at P=2
	elastic := newEngine(dist.Config{
		Algo: dist.Tree, Faults: &dist.FaultPlan{Dead: map[int]int64{2: 0}},
		Elastic: &dist.Elastic{EvictAfter: 1},
	}, 3, factory)
	defer elastic.Close()
	stepOnce(t, elastic, x, labels) // worker 2 dead at step 0, evicted immediately

	replicas := make([]*nn.Network, 2)
	for i := range replicas {
		replicas[i] = factory(100 + uint64(i)*7919)
	}
	replicas[0].CopyWeightsFrom(elastic.Master())
	fresh := dist.NewEngine(dist.Config{Algo: dist.Tree}, replicas)
	defer fresh.Close()
	for step := 0; step < 3; step++ {
		gotLoss := stepOnce(t, elastic, x, labels)
		wantLoss := stepOnce(t, fresh, x, labels)
		if gotLoss != wantLoss {
			t.Fatalf("step %d: degraded loss differs from fresh P-1 on uneven spans", step)
		}
		got, want := flatGrad(elastic), flatGrad(fresh)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d: grad coord %d differs on uneven spans", step, i)
			}
		}
	}
}

// TestMembershipAccounting: MembershipStats counts evictions, rebalanced
// shards and resynchronization bytes, files every step under the world size
// it executed at, and the post-eviction schedule matches comm.ExpectedStats
// at the surviving world.
func TestMembershipAccounting(t *testing.T) {
	x, labels, factory := testTask(64)
	payload := int64(4 * factory(1).NumParams())
	e := newEngine(dist.Config{
		Algo: dist.Tree, Faults: &dist.FaultPlan{Dead: map[int]int64{3: 1}},
		Elastic: &dist.Elastic{EvictAfter: 2},
	}, 4, factory)
	defer e.Close()
	// Steps 0-2 at world 4 (dead at 1 and 2, evicted closing step 2),
	// steps 3-4 at world 3.
	for step := 0; step < 5; step++ {
		stepOnce(t, e, x, labels)
	}
	m := e.Membership()
	if m.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", m.Evictions)
	}
	if m.RebalancedShards != 1 {
		t.Fatalf("rebalanced shards = %d, want 1 (worker 3 owned one of four shards)", m.RebalancedShards)
	}
	// The resync broadcast ran tree-shaped at the new world size 3:
	// (P−1) copies of the full weight payload.
	if want := 2 * payload; m.RebalancedBytes != want {
		t.Fatalf("rebalanced bytes = %d, want %d (tree broadcast at P=3)", m.RebalancedBytes, want)
	}
	if m.StepsAtWorld[4] != 3 || m.StepsAtWorld[3] != 2 {
		t.Fatalf("world histogram %v, want 3 steps at P=4 and 2 at P=3", m.StepsAtWorld)
	}
	if m.Steps() != e.Steps() {
		t.Fatalf("membership steps %d != engine steps %d", m.Steps(), e.Steps())
	}
	if got, want := m.Timeline(), "4x3 3x2"; got != want {
		t.Fatalf("timeline %q, want %q", got, want)
	}
	// A clean post-eviction step prices exactly like a fresh P−1 fleet.
	if got, want := e.StepStats(), comm.ExpectedStats(dist.Tree, 3, payload); got != want {
		t.Fatalf("post-eviction step stats %+v, want the P−1 closed form %+v", got, want)
	}
	sm := e.StepReport().Membership
	if sm.Evictions != 0 || sm.StepsAtWorld[3] != 1 {
		t.Fatalf("step membership %+v, want one clean step at world 3", sm)
	}
}

// TestEvictionStepAccountsResync: the step that closes with an eviction
// carries the resynchronization broadcast in its StepStats and reports the
// eviction in StepReport().Membership.
func TestEvictionStepAccountsResync(t *testing.T) {
	x, labels, factory := testTask(64)
	payload := int64(4 * factory(1).NumParams())
	e := newEngine(dist.Config{
		Algo: dist.Tree, Faults: &dist.FaultPlan{Dead: map[int]int64{2: 0}},
		Elastic: &dist.Elastic{EvictAfter: 1},
	}, 3, factory)
	defer e.Close()
	if _, err := e.ComputeGradient(x, labels); err != nil {
		t.Fatal(err)
	}
	sm := e.StepReport().Membership
	if sm.Evictions != 1 || sm.RebalancedBytes == 0 {
		t.Fatalf("eviction step membership %+v, want 1 eviction with resync bytes", sm)
	}
	// Reduce at nominal world 3 minus the dead sender's share, plus its
	// failed-recovery resend, plus the post-eviction resync broadcast at
	// world 2 — the broadcast part must be visible in the step counters.
	step := e.StepStats()
	resync := dist.BroadcastSchedule(dist.Tree, 2, payload)
	if step.Bytes < resync.Bytes {
		t.Fatalf("step bytes %d do not even cover the resync broadcast %d", step.Bytes, resync.Bytes)
	}
	if sm.RebalancedBytes != resync.Bytes {
		t.Fatalf("rebalanced bytes %d, want the P=2 tree broadcast %d", sm.RebalancedBytes, resync.Bytes)
	}
}

// TestPinnedShardsStayPinnedAcrossEviction: an explicitly pinned Shards —
// even one equal to the worker count — must not be un-pinned by an
// eviction: the shard split (and with it every reduced bit) stays exactly
// what the pin promised, and only the shard→worker assignment rebalances.
func TestPinnedShardsStayPinnedAcrossEviction(t *testing.T) {
	x, labels, factory := testTask(64)
	elastic := newEngine(dist.Config{
		Algo: dist.Ring, Shards: 4,
		Faults:  &dist.FaultPlan{Dead: map[int]int64{2: 1}},
		Elastic: &dist.Elastic{EvictAfter: 1},
	}, 4, factory)
	defer elastic.Close()
	clean := newEngine(dist.Config{Algo: dist.Ring, Shards: 4}, 4, factory)
	defer clean.Close()
	for step := 0; step < 4; step++ {
		gotLoss := stepOnce(t, elastic, x, labels)
		wantLoss := stepOnce(t, clean, x, labels)
		if gotLoss != wantLoss {
			t.Fatalf("step %d: pinned-shard degraded loss differs from the clean pinned run", step)
		}
		got, want := flatGrad(elastic), flatGrad(clean)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d: eviction changed grad coord %d despite the pinned shard split", step, i)
			}
		}
	}
	if elastic.LiveWorkers() != 3 || elastic.Shards() != 4 {
		t.Fatalf("world %d shards %d, want the world to shrink to 3 with the split pinned at 4",
			elastic.LiveWorkers(), elastic.Shards())
	}
}

// TestCodecSlotsStableAcrossEviction: a slot-keyed codec (1-bit error
// feedback) pins the shard split across evictions, so no residual is ever
// applied to a different shard's data — the degraded run stays bit-identical
// to a clean run with the same codec and split.
func TestCodecSlotsStableAcrossEviction(t *testing.T) {
	x, labels, factory := testTask(60)
	mk := func(faulty bool) *dist.Engine {
		cfg := dist.Config{Algo: dist.Central, Codec: dist.NewOneBitCodec()}
		if faulty {
			cfg.Faults = &dist.FaultPlan{Dead: map[int]int64{2: 1}}
			cfg.Elastic = &dist.Elastic{EvictAfter: 1}
		}
		return newEngine(cfg, 3, factory)
	}
	elastic, clean := mk(true), mk(false)
	defer elastic.Close()
	defer clean.Close()
	for step := 0; step < 5; step++ {
		gotLoss := stepOnce(t, elastic, x, labels)
		wantLoss := stepOnce(t, clean, x, labels)
		if gotLoss != wantLoss {
			t.Fatalf("step %d: eviction perturbed the 1-bit error-feedback trajectory", step)
		}
		got, want := flatGrad(elastic), flatGrad(clean)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d: codec residual remapped across the eviction (grad coord %d)", step, i)
			}
		}
	}
	if elastic.LiveWorkers() != 2 || elastic.Shards() != 3 {
		t.Fatalf("world %d shards %d, want world 2 with the codec-pinned split at 3",
			elastic.LiveWorkers(), elastic.Shards())
	}
}

// TestTwoEvictionsCountPreEvictionOwners: when one step evicts two workers,
// each contributes the shards it owned in the assignment over the live
// workers before any of that step's evictions — not over a roster the first
// eviction already shrank — while the event worlds stay sequential.
func TestTwoEvictionsCountPreEvictionOwners(t *testing.T) {
	x, labels, factory := testTask(48)
	for _, tc := range []struct{ shards, want int }{
		{6, 3}, // over live {0,1,2,3}: worker 1 owns {1,5}, worker 2 owns {2}
		{8, 4}, // worker 1 owns {1,5}, worker 2 owns {2,6}
		{0, 2}, // the world-tracking split: one shard each
	} {
		e := newEngine(dist.Config{
			Algo: dist.Ring, Shards: tc.shards,
			Faults:  &dist.FaultPlan{Dead: map[int]int64{1: 0, 2: 0}},
			Elastic: &dist.Elastic{EvictAfter: 1},
		}, 4, factory)
		stepOnce(t, e, x, labels)
		m := e.Membership()
		e.Close()
		if m.RebalancedShards != int64(tc.want) {
			t.Errorf("Shards %d: RebalancedShards = %d, want %d", tc.shards, m.RebalancedShards, tc.want)
		}
		want := []dist.MembershipEvent{{Step: 1, Worker: 1, World: 3}, {Step: 1, Worker: 2, World: 2}}
		if !reflect.DeepEqual(m.Events, want) {
			t.Errorf("Shards %d: events %v, want %v", tc.shards, m.Events, want)
		}
	}
}
