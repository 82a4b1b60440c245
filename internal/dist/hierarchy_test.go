package dist_test

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
)

// hierarchies lists representative two-tier layouts: square, wide nodes,
// many small nodes, non-power-of-two node counts, and degenerate tiers.
var hierarchies = []dist.Hierarchy{
	dist.NewHierarchy(2, 2),
	dist.NewHierarchy(2, 4),
	dist.NewHierarchy(4, 2),
	dist.NewHierarchy(3, 2),
	{Nodes: 2, PerNode: 3, Intra: dist.Central, Inter: dist.Ring},
	{Nodes: 1, PerNode: 4, Intra: dist.Ring, Inter: dist.Tree}, // single node: inter tier is free
	{Nodes: 4, PerNode: 1, Intra: dist.Ring, Inter: dist.Tree}, // one worker per node: intra tier is free
	{Nodes: 2, PerNode: 2, Intra: dist.Tree, Inter: dist.Central},
}

// TestNewHierarchyDefaults pins the paper-style composition: ring inside
// the node, tree across node leaders.
func TestNewHierarchyDefaults(t *testing.T) {
	h := dist.NewHierarchy(3, 4)
	if h.Nodes != 3 || h.PerNode != 4 || h.Intra != dist.Ring || h.Inter != dist.Tree {
		t.Fatalf("NewHierarchy(3,4) = %+v, want 3x4 ring/tree", h)
	}
	if h.Workers() != 12 {
		t.Fatalf("Workers() = %d, want 12", h.Workers())
	}
	if h.String() != "3x4 ring/tree" {
		t.Fatalf("String() = %q", h.String())
	}
}

// TestHierReduceBitIdenticalToFlat is the reproducibility contract extended
// to composed topologies: a hierarchical reduction returns bitwise the same
// sum as every flat topology, whatever the node layout.
func TestHierReduceBitIdenticalToFlat(t *testing.T) {
	for _, h := range hierarchies {
		src := randomBufs(h.Workers(), 513, uint64(h.Workers()))
		flat := cloneBufs(src)
		dist.Reduce(dist.Tree, flat, nil)
		bufs := cloneBufs(src)
		dist.HierReduce(h, bufs, nil)
		for i := range flat[0] {
			if bufs[0][i] != flat[0][i] {
				t.Fatalf("%v: coord %d = %v, flat tree reference %v", h, i, bufs[0][i], flat[0][i])
			}
		}
	}
}

// TestHierAllreduceLeavesSumEverywhere: HierReduce followed by
// HierBroadcast must leave every worker holding the root's sum.
func TestHierAllreduceLeavesSumEverywhere(t *testing.T) {
	for _, h := range hierarchies {
		bufs := randomBufs(h.Workers(), 129, 5)
		dist.HierReduce(h, bufs, nil)
		dist.HierBroadcast(h, bufs, nil)
		for w := 1; w < len(bufs); w++ {
			for i := range bufs[0] {
				if bufs[w][i] != bufs[0][i] {
					t.Fatalf("%v: worker %d coord %d = %v, root %v", h, w, i, bufs[w][i], bufs[0][i])
				}
			}
		}
	}
}

// TestHierTierStatsClosedForm pins the executed two-tier schedule of the
// default composition (ring intra, tree inter) to independently written
// closed forms: the intra tier runs one ring allreduce per node (messages
// and bytes summed over the N concurrent nodes, latency rounds counted
// once), the inter tier one tree allreduce among the N leaders.
func TestHierTierStatsClosedForm(t *testing.T) {
	ceilLog2 := func(p int) int64 {
		var n int64
		for v := 1; v < p; v *= 2 {
			n++
		}
		return n
	}
	const elems = 100
	payload := int64(4 * elems)
	for _, layout := range [][2]int{{2, 2}, {2, 4}, {4, 2}, {3, 3}} {
		nodes, perNode := layout[0], layout[1]
		h := dist.NewHierarchy(nodes, perNode)
		bufs := randomBufs(h.Workers(), elems, 7)
		var tiers dist.TierStats
		dist.HierReduce(h, bufs, &tiers)
		dist.HierBroadcast(h, bufs, &tiers)

		n, m := int64(nodes), int64(perNode)
		wantIntra := dist.CommStats{ // ring reduce-scatter+allgather, then binomial fan-out, per node
			Messages: n * (2*m*(m-1) + (m - 1)),
			Bytes:    n * 3 * (m - 1) * payload,
			Steps:    2*(m-1) + ceilLog2(perNode),
		}
		wantInter := dist.CommStats{ // binomial tree up and down among the leaders
			Messages: 2 * (n - 1),
			Bytes:    2 * (n - 1) * payload,
			Steps:    2 * ceilLog2(nodes),
		}
		if tiers.Intra != wantIntra {
			t.Errorf("%v intra tier %+v, want %+v", h, tiers.Intra, wantIntra)
		}
		if tiers.Inter != wantInter {
			t.Errorf("%v inter tier %+v, want %+v", h, tiers.Inter, wantInter)
		}
		total := tiers.Total()
		sum := wantIntra
		sum.Add(wantInter)
		if total != sum {
			t.Errorf("%v Total() = %+v, want tier sum %+v", h, total, sum)
		}
	}
}

// TestEngineHierStepStatsMatchExpected is the closed-form acceptance
// criterion: one hierarchical engine step's measured per-tier counters must
// equal comm.ExpectedTierStats for the full gradient payload, exactly, over
// every layout and algorithm pairing.
func TestEngineHierStepStatsMatchExpected(t *testing.T) {
	x, labels, factory := testTask(64)
	payload := int64(4 * factory(1).NumParams())
	for _, h := range hierarchies {
		h := h
		e := newEngine(dist.Config{Topology: &h}, h.Workers(), factory)
		if _, err := e.ComputeGradient(x, labels); err != nil {
			t.Fatal(err)
		}
		if err := e.BroadcastWeights(); err != nil {
			t.Fatal(err)
		}
		tiers := e.StepTierStats()
		step := e.StepStats()
		e.Close()
		want := comm.ExpectedTierStats(h, nil, payload)
		if tiers != want {
			t.Errorf("%v: measured tiers %+v, want closed form %+v", h, tiers, want)
		}
		if step != want.Total() {
			t.Errorf("%v: aggregate step stats %+v, want tier-sum %+v", h, step, want.Total())
		}
	}
}

// TestEngineHierarchyBitIdenticalToFlat is the acceptance criterion at the
// engine level: with the shard split pinned, a hierarchical engine produces
// bitwise the gradient and loss of flat ring and tree engines.
func TestEngineHierarchyBitIdenticalToFlat(t *testing.T) {
	x, labels, factory := testTask(64)
	const shards = 4
	var refGrad []float32
	var refLoss float64
	for _, algo := range []dist.Algorithm{dist.Ring, dist.Tree} {
		e := newEngine(dist.Config{Algo: algo, Shards: shards}, 4, factory)
		loss, err := e.ComputeGradient(x, labels)
		if err != nil {
			t.Fatal(err)
		}
		refGrad = flatGrad(e)
		refLoss = loss
		e.Close()

		for _, h := range []dist.Hierarchy{dist.NewHierarchy(2, 2), dist.NewHierarchy(4, 1), dist.NewHierarchy(1, 4)} {
			h := h
			he := newEngine(dist.Config{Topology: &h, Shards: shards}, 4, factory)
			hloss, err := he.ComputeGradient(x, labels)
			if err != nil {
				t.Fatal(err)
			}
			hgrad := flatGrad(he)
			he.Close()
			if hloss != refLoss {
				t.Fatalf("%v: loss %v differs bitwise from flat %v's %v", h, hloss, algo, refLoss)
			}
			for i := range hgrad {
				if hgrad[i] != refGrad[i] {
					t.Fatalf("%v: grad coord %d differs bitwise from flat %v", h, i, algo)
				}
			}
		}
	}
}

// TestEngineTierTotalsMatchAggregate: for hierarchical runs the flat
// counters must be exactly the sum of the two tiers, including under
// bucketing and fault injection.
func TestEngineTierTotalsMatchAggregate(t *testing.T) {
	x, labels, factory := testTask(64)
	h := dist.NewHierarchy(2, 2)
	e := newEngine(dist.Config{
		Topology: &h, BucketElems: 50,
		Faults: &dist.FaultPlan{Seed: 3, DropRate: 0.5, StallRate: 0.5},
	}, 4, factory)
	defer e.Close()
	for step := 0; step < 4; step++ {
		if _, err := e.ComputeGradient(x, labels); err != nil {
			t.Fatal(err)
		}
		if err := e.BroadcastWeights(); err != nil {
			t.Fatal(err)
		}
		if got, want := e.StepTierStats().Total(), e.StepStats(); got != want {
			t.Fatalf("step %d: tier total %+v != step stats %+v", step, got, want)
		}
	}
	if got, want := e.Report().TierComm.Total(), e.Stats(); got != want {
		t.Fatalf("cumulative tier total %+v != stats %+v", got, want)
	}
	if e.Stats().Retries == 0 || e.Stats().Stalls == 0 {
		t.Fatal("fault plan injected nothing")
	}
}

// TestHierarchyFaultTierAttribution: recovery traffic lands on the tier the
// dropped worker sends on — intra for node members, inter for node leaders.
// In a 2x2 layout with DropRate 1, workers 1 and 3 (node members) drop on
// the intra fabrics and worker 2 (node 1's leader) on the inter fabric;
// worker 0, the global root, never drops.
func TestHierarchyFaultTierAttribution(t *testing.T) {
	x, labels, factory := testTask(32)
	h := dist.NewHierarchy(2, 2)
	e := newEngine(dist.Config{Topology: &h, Faults: &dist.FaultPlan{Seed: 1, DropRate: 1}}, 4, factory)
	defer e.Close()
	if _, err := e.ComputeGradient(x, labels); err != nil {
		t.Fatal(err)
	}
	tiers := e.StepTierStats()
	if tiers.Intra.Retries != 2 {
		t.Errorf("intra retries = %d, want 2 (workers 1 and 3)", tiers.Intra.Retries)
	}
	if tiers.Inter.Retries != 1 {
		t.Errorf("inter retries = %d, want 1 (worker 2, node 1's leader)", tiers.Inter.Retries)
	}
}

// TestEngineHierarchyFaultsRecoverExactly: hierarchical fault recovery
// keeps the reproducibility contract — values bitwise equal to a clean run,
// stats deterministic across repeats.
func TestEngineHierarchyFaultsRecoverExactly(t *testing.T) {
	x, labels, factory := testTask(64)
	run := func(faults *dist.FaultPlan) ([]float32, dist.TierStats) {
		h := dist.NewHierarchy(2, 2)
		e := newEngine(dist.Config{Topology: &h, Faults: faults}, 4, factory)
		defer e.Close()
		for step := 0; step < 3; step++ {
			if _, err := e.ComputeGradient(x, labels); err != nil {
				t.Fatal(err)
			}
			addScaledGrads(e.Master().Params(), -0.05)
			if err := e.BroadcastWeights(); err != nil {
				t.Fatal(err)
			}
		}
		return flatGrad(e), e.Report().TierComm
	}
	cleanGrad, _ := run(nil)
	plan := &dist.FaultPlan{Seed: 11, DropRate: 0.6, StallRate: 0.6}
	faultGrad, faultTiers := run(plan)
	for i := range cleanGrad {
		if faultGrad[i] != cleanGrad[i] {
			t.Fatalf("faults changed grad coord %d", i)
		}
	}
	if faultTiers.Intra.Retries+faultTiers.Inter.Retries == 0 {
		t.Fatal("fault plan injected no retries")
	}
	_, again := run(plan)
	if again != faultTiers {
		t.Fatalf("hierarchical fault schedule not deterministic: %+v vs %+v", again, faultTiers)
	}
}

// TestEngineHierarchyWorkerMismatchPanics: a topology that does not cover
// the replica count must be rejected at construction.
func TestEngineHierarchyWorkerMismatchPanics(t *testing.T) {
	_, _, factory := testTask(8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 2x2 hierarchy over 3 replicas")
		}
	}()
	h := dist.NewHierarchy(2, 2)
	newEngine(dist.Config{Topology: &h}, 3, factory)
}
