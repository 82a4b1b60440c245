package dist_test

import (
	"reflect"
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/nn"
)

// TestJoinRebalanceIdentity is the elastic scale-up contract at engine
// level, the mirror of TestEvictionRebalanceIdentity: after a fresh worker
// joins, every subsequent step — including the join step itself — is
// bit-identical to a fresh P+1 engine started from the broadcast weights.
func TestJoinRebalanceIdentity(t *testing.T) {
	x, labels, factory := testTask(64)
	plan := &dist.FaultPlan{Join: map[int]int64{3: 3}}
	elastic := newEngine(dist.Config{
		Algo: dist.Ring, Faults: plan, Elastic: &dist.Elastic{},
	}, 4, factory)
	defer elastic.Close()

	if got := elastic.LiveWorkers(); got != 3 {
		t.Fatalf("world size before the join = %d, want 3 (worker 3 pending)", got)
	}
	if got := elastic.Shards(); got != 3 {
		t.Fatalf("shard count before the join = %d, want 3 (world-tracking split)", got)
	}
	// Steps 0-2 at world 3; worker 3 is admitted at the step-3 boundary.
	for step := 0; step < 3; step++ {
		stepOnce(t, elastic, x, labels)
	}

	// A fresh 4-worker engine seeded from the weights the admission
	// broadcast will distribute (the master's, at the join boundary).
	replicas := make([]*nn.Network, 4)
	for i := range replicas {
		replicas[i] = factory(100 + uint64(i)*7919)
	}
	replicas[0].CopyWeightsFrom(elastic.Master())
	fresh := dist.NewEngine(dist.Config{Algo: dist.Ring}, replicas)
	defer fresh.Close()

	for step := 3; step < 7; step++ {
		gotLoss := stepOnce(t, elastic, x, labels)
		wantLoss := stepOnce(t, fresh, x, labels)
		if gotLoss != wantLoss {
			t.Fatalf("step %d: grown loss %v differs bitwise from fresh P+1 loss %v", step, gotLoss, wantLoss)
		}
		got, want := flatGrad(elastic), flatGrad(fresh)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d: grad coord %d differs between grown and fresh P+1 run", step, i)
			}
		}
	}
	if elastic.LiveWorkers() != 4 || elastic.Shards() != 4 {
		t.Fatalf("world %d shards %d after the join, want 4 and 4", elastic.LiveWorkers(), elastic.Shards())
	}
	m := elastic.Membership()
	if m.Joins != 1 || m.Evictions != 0 {
		t.Fatalf("joins = %d evictions = %d, want exactly one join", m.Joins, m.Evictions)
	}
	if m.JoinedShards != 1 {
		t.Fatalf("joined shards = %d, want 1 (worker 3 owns one of four shards)", m.JoinedShards)
	}
	if got, want := m.Timeline(), "4x4 3x3"; got != want {
		t.Fatalf("timeline %q, want %q", got, want)
	}
	if got, want := m.EventTimeline(), "+3@3"; got != want {
		t.Fatalf("event timeline %q, want %q", got, want)
	}
}

// TestRejoinAfterEvictionIdentity: a preempted worker that was already
// evicted returns — the full preemptible-node round trip. Post-rejoin
// steps are bit-identical to a fresh engine at the restored world size,
// and the clean post-rejoin schedule matches the closed form at the
// restored world.
func TestRejoinAfterEvictionIdentity(t *testing.T) {
	x, labels, factory := testTask(64)
	payload := int64(4 * factory(1).NumParams())
	elastic := newEngine(dist.Config{
		Algo:    dist.Tree,
		Faults:  &dist.FaultPlan{Dead: map[int]int64{3: 1}, Join: map[int]int64{3: 5}},
		Elastic: &dist.Elastic{EvictAfter: 2},
	}, 4, factory)
	defer elastic.Close()

	// Steps 0-2 at world 4 (dead at 1 and 2, evicted closing step 2),
	// steps 3-4 at world 3, rejoin at the step-5 boundary.
	for step := 0; step < 5; step++ {
		stepOnce(t, elastic, x, labels)
	}
	if got := elastic.LiveWorkers(); got != 3 {
		t.Fatalf("world size before the rejoin = %d, want 3", got)
	}

	replicas := make([]*nn.Network, 4)
	for i := range replicas {
		replicas[i] = factory(200 + uint64(i)*7919)
	}
	replicas[0].CopyWeightsFrom(elastic.Master())
	fresh := dist.NewEngine(dist.Config{Algo: dist.Tree}, replicas)
	defer fresh.Close()

	for step := 5; step < 9; step++ {
		gotLoss := stepOnce(t, elastic, x, labels)
		wantLoss := stepOnce(t, fresh, x, labels)
		if gotLoss != wantLoss {
			t.Fatalf("step %d: rejoined loss differs bitwise from fresh restored-world loss", step)
		}
		got, want := flatGrad(elastic), flatGrad(fresh)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d: grad coord %d differs after the rejoin", step, i)
			}
		}
	}
	// Steps 6-8 were clean steps at the restored world 4: the measured
	// schedule is the closed form at the live world, which is all a grown
	// world is.
	if got, want := elastic.StepStats(), comm.ExpectedStats(dist.Tree, 4, payload); got != want {
		t.Fatalf("post-rejoin step stats %+v, want grown-world closed form %+v", got, want)
	}
	m := elastic.Membership()
	if m.Evictions != 1 || m.Joins != 1 {
		t.Fatalf("evictions = %d joins = %d, want one of each", m.Evictions, m.Joins)
	}
	if got, want := m.EventTimeline(), "-3@3 +3@5"; got != want {
		t.Fatalf("event timeline %q, want %q", got, want)
	}
	if got, want := m.Timeline(), "4x7 3x2"; got != want {
		t.Fatalf("timeline %q, want %q (steps 0-2 and 5-8 at P=4, 3-4 at P=3)", got, want)
	}
}

// TestGrowShrinkGrowClosedForms walks a full grow-shrink-grow membership
// timeline and checks that comm's one closed form — ExpectedStats at the
// live world, whichever way the fleet got there — matches the measured step
// counters exactly at every world size, and that the membership histogram
// stays consistent throughout.
func TestGrowShrinkGrowClosedForms(t *testing.T) {
	x, labels, factory := testTask(80)
	payload := int64(4 * factory(1).NumParams())
	e := newEngine(dist.Config{
		Algo: dist.Tree,
		Faults: &dist.FaultPlan{
			Dead: map[int]int64{1: 4},
			Join: map[int]int64{1: 7, 4: 2},
		},
		Elastic: &dist.Elastic{EvictAfter: 1},
	}, 5, factory)
	defer e.Close()

	// Worlds by step: 0-1 at 4 (worker 4 pending), 2-3 at 5 (worker 4
	// joined), 4 at 5 with worker 1 dead (evicted closing step 4), 5-6 at
	// 4, 7-9 at 5 again (worker 1 rejoined). Clean steps measure the pure
	// schedule; the closed form is phrased from the 5-replica fleet, so
	// a world of w is "5−w evicted" — negative once joins outgrow it.
	wantWorld := map[int64]int{1: 4, 3: 5, 6: 4, 9: 5}
	for step := int64(0); step < 10; step++ {
		stepOnce(t, e, x, labels)
		w, check := wantWorld[step]
		if !check {
			continue
		}
		if got := e.LiveWorkers(); got != w {
			t.Fatalf("step %d: world %d, want %d", step, got, w)
		}
		if got, want := e.StepStats(), comm.ExpectedStats(dist.Tree, w, payload); got != want {
			t.Fatalf("step %d (world %d): step stats %+v, want closed form %+v", step, w, got, want)
		}
	}
	m := e.Membership()
	if m.Joins != 2 || m.Evictions != 1 {
		t.Fatalf("joins = %d evictions = %d, want 2 and 1", m.Joins, m.Evictions)
	}
	if got, want := m.EventTimeline(), "+4@2 -1@5 +1@7"; got != want {
		t.Fatalf("event timeline %q, want %q", got, want)
	}
	if got, want := m.Timeline(), "5x6 4x4"; got != want {
		t.Fatalf("timeline %q, want %q", got, want)
	}
	if m.Steps() != e.Steps() {
		t.Fatalf("membership steps %d != engine steps %d", m.Steps(), e.Steps())
	}
}

// TestJoinStepAccountsWarmStart: the step that opens with an admission
// carries the warm-start broadcast in its StepStats — priced at the grown
// world size — and reports the join in StepReport().Membership.
func TestJoinStepAccountsWarmStart(t *testing.T) {
	x, labels, factory := testTask(64)
	payload := int64(4 * factory(1).NumParams())
	e := newEngine(dist.Config{
		Algo: dist.Tree, Faults: &dist.FaultPlan{Join: map[int]int64{2: 1}},
		Elastic: &dist.Elastic{},
	}, 3, factory)
	defer e.Close()
	stepOnce(t, e, x, labels) // step 0 at world 2
	stepOnce(t, e, x, labels) // step 1: join, then compute at world 3
	sm := e.StepReport().Membership
	if sm.Joins != 1 || sm.JoinedBytes == 0 {
		t.Fatalf("join step membership %+v, want 1 join with warm-start bytes", sm)
	}
	warm := dist.BroadcastSchedule(dist.Tree, 3, payload)
	if sm.JoinedBytes != warm.Bytes {
		t.Fatalf("joined bytes %d, want the P=3 tree broadcast %d (grown world size)", sm.JoinedBytes, warm.Bytes)
	}
	// The join step's total = the full-strength P=3 allreduce plus the
	// extra warm-start broadcast.
	var want dist.CommStats
	want.Add(comm.ExpectedStats(dist.Tree, 3, payload))
	want.Add(warm)
	if got := e.StepStats(); got != want {
		t.Fatalf("join step stats %+v, want schedule-plus-warm-start %+v", got, want)
	}
	if sm.StepsAtWorld[3] != 1 {
		t.Fatalf("join step filed under %v, want one step at world 3", sm.StepsAtWorld)
	}
}

// TestHierarchyNodeRejoinRestoresInterTier: a node that emptied out of the
// inter tier returns when its workers rejoin — leadership restores to the
// lowest live index, the restored per-tier schedule equals the
// full-strength closed form exactly, and post-rejoin values are
// bit-identical to a fresh full-hierarchy engine started from the
// broadcast weights.
func TestHierarchyNodeRejoinRestoresInterTier(t *testing.T) {
	x, labels, factory := testTask(64)
	h := dist.NewHierarchy(2, 2)
	payload := int64(4 * factory(1).NumParams())
	e := newEngine(dist.Config{
		Topology: &h,
		Faults:   &dist.FaultPlan{Dead: map[int]int64{2: 1, 3: 1}, Join: map[int]int64{2: 5, 3: 5}},
		Elastic:  &dist.Elastic{EvictAfter: 2},
	}, 4, factory)
	defer e.Close()

	// Node 1 dies at step 1 and leaves the inter tier at the end of step
	// 2; both members return at the step-5 boundary.
	for step := 0; step < 4; step++ {
		stepOnce(t, e, x, labels)
	}
	if got := e.LiveWorkers(); got != 2 {
		t.Fatalf("world size with node 1 evicted = %d, want 2", got)
	}
	if tiers := e.StepTierStats(); tiers.Inter != (dist.CommStats{}) {
		t.Fatalf("inter tier still carries traffic while node 1 is gone: %+v", tiers.Inter)
	}
	stepOnce(t, e, x, labels) // step 4, still degraded

	// Seed a fresh full-hierarchy engine from the weights the warm-start
	// broadcast will distribute at the step-5 join boundary: the master's
	// post-step-4 weights.
	replicas := make([]*nn.Network, 4)
	for i := range replicas {
		replicas[i] = factory(300 + uint64(i)*7919)
	}
	replicas[0].CopyWeightsFrom(e.Master())
	fresh := dist.NewEngine(dist.Config{Topology: &h}, replicas)
	defer fresh.Close()

	for step := 5; step < 8; step++ {
		gotLoss := stepOnce(t, e, x, labels)
		wantLoss := stepOnce(t, fresh, x, labels)
		if gotLoss != wantLoss {
			t.Fatalf("step %d: restored-hierarchy loss differs bitwise from the fresh full hierarchy", step)
		}
		got, want := flatGrad(e), flatGrad(fresh)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d: grad coord %d differs after the node rejoined", step, i)
			}
		}
	}
	if got := e.LiveWorkers(); got != 4 {
		t.Fatalf("world size after the node rejoined = %d, want 4", got)
	}
	// The restored fleet's per-tier schedule is exactly the full-strength
	// closed form — and the degraded closed form at restored sizes agrees.
	tiers := e.StepTierStats()
	if want := comm.ExpectedTierStats(h, nil, payload); tiers != want {
		t.Fatalf("restored tier stats %+v, want full-strength closed form %+v", tiers, want)
	}
	if want := comm.ExpectedTierStats(h, []int{2, 2}, payload); tiers != want {
		t.Fatalf("restored tier stats %+v, want degraded closed form at restored sizes %+v", tiers, want)
	}
}

// TestOverlapRescaleAfterJoin: the overlap scheduler survives an admission
// — the joiner's notify hook has been installed since NewEngine, and the
// bucket countdowns, arithmetic over the parameter offsets, start each step
// at the grown shard count — so bucket reductions keep firing inside the
// backward pass with values bit-identical to the sequential grown engine.
func TestOverlapRescaleAfterJoin(t *testing.T) {
	x, labels, _ := testTask(60)
	factory := func(seed uint64) *nn.Network {
		return models.NewMicroAlexNet(models.MicroConfig{Classes: 4, InH: 8, InW: 8, Width: 4, Seed: seed})
	}
	n := factory(1).NumParams()
	mk := func(overlap bool) *dist.Engine {
		return newEngine(dist.Config{
			Algo: dist.Ring, BucketElems: n/4 + 1, Overlap: overlap,
			Faults:  &dist.FaultPlan{Join: map[int]int64{2: 2}},
			Elastic: &dist.Elastic{},
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
				t.Fatalf("step %d: overlap changed grad coord %d after the join", step, i)
			}
		}
	}
	if ov.LiveWorkers() != 3 {
		t.Fatalf("world size = %d, want 3 after the join", ov.LiveWorkers())
	}
	post := ov.StepOverlapStats()
	if post.HiddenRounds == 0 {
		t.Fatalf("post-join overlap scheduler hid nothing: %+v", post)
	}
	if seqStats := seq.StepStats(); post.Rounds() != seqStats.Steps || post.TotalBytes() != seqStats.Bytes {
		t.Fatalf("post-join overlap split %+v does not cover the sequential schedule %+v", post, seqStats)
	}
}

// TestSuspectedReturnResyncs: a worker whose outage ends before the evict
// threshold fires returns to the collective with a resynchronizing
// broadcast — without it, the broadcasts it missed while suspected would
// leave it computing on stale weights. The whole run stays bit-identical
// to a clean engine (the world-tracking split never moved: the worker was
// suspected, not evicted).
func TestSuspectedReturnResyncs(t *testing.T) {
	x, labels, factory := testTask(48)
	elastic := newEngine(dist.Config{
		Algo:    dist.Ring,
		Faults:  &dist.FaultPlan{Dead: map[int]int64{1: 1}, Join: map[int]int64{1: 3}},
		Elastic: &dist.Elastic{EvictAfter: 5},
	}, 3, factory)
	defer elastic.Close()
	clean := newEngine(dist.Config{Algo: dist.Ring}, 3, factory)
	defer clean.Close()
	for step := 0; step < 6; step++ {
		gotLoss := stepOnce(t, elastic, x, labels)
		wantLoss := stepOnce(t, clean, x, labels)
		if gotLoss != wantLoss {
			t.Fatalf("step %d: suspected-return run diverged from the clean run", step)
		}
		got, want := flatGrad(elastic), flatGrad(clean)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d: grad coord %d diverged across the suspected return", step, i)
			}
		}
	}
	m := elastic.Membership()
	if m.Evictions != 0 || m.Joins != 1 {
		t.Fatalf("evictions = %d joins = %d, want a return with no eviction", m.Evictions, m.Joins)
	}
	if elastic.LiveWorkers() != 3 || elastic.Shards() != 3 {
		t.Fatalf("world %d shards %d, want 3 and 3 throughout", elastic.LiveWorkers(), elastic.Shards())
	}
}

// TestCodecSlotsStableAcrossJoin: a slot-keyed codec (1-bit error
// feedback) pins the shard split across joins exactly as it does across
// evictions — the admission only reassigns owners, so no residual is ever
// applied to a different shard's data and the grown run stays
// bit-identical to a clean run with the same codec and split.
func TestCodecSlotsStableAcrossJoin(t *testing.T) {
	x, labels, factory := testTask(60)
	mk := func(joining bool) *dist.Engine {
		cfg := dist.Config{Algo: dist.Central, Codec: dist.NewOneBitCodec()}
		if joining {
			cfg.Faults = &dist.FaultPlan{Join: map[int]int64{2: 2}}
			cfg.Elastic = &dist.Elastic{}
		}
		return newEngine(cfg, 3, factory)
	}
	elastic, clean := mk(true), mk(false)
	defer elastic.Close()
	defer clean.Close()
	if got := elastic.Shards(); got != 3 {
		t.Fatalf("codec run shards = %d before the join, want the pinned 3", got)
	}
	for step := 0; step < 5; step++ {
		gotLoss := stepOnce(t, elastic, x, labels)
		wantLoss := stepOnce(t, clean, x, labels)
		if gotLoss != wantLoss {
			t.Fatalf("step %d: join perturbed the 1-bit error-feedback trajectory", step)
		}
		got, want := flatGrad(elastic), flatGrad(clean)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d: codec residual remapped across the join (grad coord %d)", step, i)
			}
		}
	}
	if elastic.LiveWorkers() != 3 || elastic.Shards() != 3 {
		t.Fatalf("world %d shards %d, want world 3 with the codec-pinned split still at 3",
			elastic.LiveWorkers(), elastic.Shards())
	}

	// Negative control: without the codec the default split does grow —
	// the pin above is a codec property, not a blanket rule.
	control := newEngine(dist.Config{
		Algo:    dist.Central,
		Faults:  &dist.FaultPlan{Join: map[int]int64{2: 2}},
		Elastic: &dist.Elastic{},
	}, 3, factory)
	defer control.Close()
	if got := control.Shards(); got != 2 {
		t.Fatalf("default split shards = %d before the join, want 2", got)
	}
	stepOnce(t, control, x, labels)
	stepOnce(t, control, x, labels)
	stepOnce(t, control, x, labels) // step 2 admits the joiner at its boundary
	if got := control.Shards(); got != 3 {
		t.Fatalf("default split shards = %d after the join, want 3 (world-tracking split grows)", got)
	}
}

// TestJoinPlanValidation: NewEngine rejects join plans that cannot mean
// anything — joins without Elastic, joins of the master, out-of-range
// workers, step-0 joins, and a same-step death-and-join.
func TestJoinPlanValidation(t *testing.T) {
	_, _, factory := testTask(8)
	replicas := func(n int) []*nn.Network {
		out := make([]*nn.Network, n)
		for i := range out {
			out[i] = factory(1 + uint64(i))
		}
		return out
	}
	cases := []struct {
		name string
		cfg  dist.Config
	}{
		{"join without elastic", dist.Config{Faults: &dist.FaultPlan{Join: map[int]int64{1: 2}}}},
		{"join of the master", dist.Config{Faults: &dist.FaultPlan{Join: map[int]int64{0: 2}}, Elastic: &dist.Elastic{}}},
		{"join out of range", dist.Config{Faults: &dist.FaultPlan{Join: map[int]int64{7: 2}}, Elastic: &dist.Elastic{}}},
		{"join at step 0", dist.Config{Faults: &dist.FaultPlan{Join: map[int]int64{1: 0}}, Elastic: &dist.Elastic{}}},
		{"dead and joining at the same step", dist.Config{
			Faults:  &dist.FaultPlan{Dead: map[int]int64{1: 3}, Join: map[int]int64{1: 3}},
			Elastic: &dist.Elastic{},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewEngine accepted an invalid join plan (%s)", tc.name)
				}
			}()
			e := dist.NewEngine(tc.cfg, replicas(2))
			e.Close()
		})
	}
}

// stepReports runs an engine built at StartStep start through step last and
// returns each step's report, keyed by step.
func stepReports(t *testing.T, cfg dist.Config, start, last int64) map[int64]dist.Report {
	t.Helper()
	x, labels, factory := testTask(48)
	cfg.StartStep = start
	e := newEngine(cfg, 4, factory)
	defer e.Close()
	reports := make(map[int64]dist.Report)
	for step := start; step <= last; step++ {
		stepOnce(t, e, x, labels)
		reports[step] = e.StepReport()
	}
	return reports
}

// TestResumeAtJoinStepAdmits: a checkpoint taken after step k−1 resumes at
// StartStep k, before step k's opening admission, so a join scheduled for
// step k must still fire — the resumed engine's step k files the same
// admission, comm and membership as the uninterrupted run's. Resuming one
// step earlier or later reproduces the uninterrupted steps from k on as well
// (one later, the join is already in effect). A returning member resumed
// inside its outage is evicted afresh, since strikes are not carried across
// a resume, and then readmitted on time.
func TestResumeAtJoinStepAdmits(t *testing.T) {
	for _, tc := range []struct {
		name   string
		plan   dist.FaultPlan
		join   int64
		before string // the timeline of a run resumed at join−1
	}{
		{"fresh joiner", dist.FaultPlan{Join: map[int]int64{3: 3}}, 3, "+3@3"},
		{"returning member", dist.FaultPlan{Dead: map[int]int64{2: 1}, Join: map[int]int64{2: 4}}, 4, "-2@4 +2@4"},
	} {
		cfg := dist.Config{Algo: dist.Ring, Faults: &tc.plan, Elastic: &dist.Elastic{EvictAfter: 1}}
		k := tc.join
		full := stepReports(t, cfg, 0, k+1)
		if full[k].Membership.Joins != 1 {
			t.Fatalf("%s: uninterrupted step %d files %d joins, want 1", tc.name, k, full[k].Membership.Joins)
		}
		for _, start := range []int64{k - 1, k, k + 1} {
			resumed := stepReports(t, cfg, start, k+1)
			for step := max(start, k); step <= k+1; step++ {
				got, want := resumed[step], full[step]
				if got.Comm != want.Comm || !reflect.DeepEqual(got.Membership, want.Membership) {
					t.Errorf("%s: resumed at %d, step %d files comm %+v membership %+v; uninterrupted %+v %+v",
						tc.name, start, step, got.Comm, got.Membership, want.Comm, want.Membership)
				}
			}
			if start != k-1 {
				continue
			}
			var m dist.MembershipStats
			for step := start; step <= k+1; step++ {
				m.Add(resumed[step].Membership)
			}
			if got := m.EventTimeline(); got != tc.before {
				t.Errorf("%s: resumed at %d files %q, want %q", tc.name, start, got, tc.before)
			}
		}
	}
}
