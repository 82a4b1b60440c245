package dist

import "fmt"

// Hierarchy arranges the workers into a two-tier node topology: Nodes
// machines of PerNode workers each, laid out node-major (worker w lives on
// node w/PerNode; the node's first worker, w%PerNode == 0, is its leader).
// A hierarchical allreduce then composes two fabrics, the structure the
// paper's fastest runs exploit (reductions inside a KNL or Skylake node are
// cheap; the cross-node links are the bottleneck) and the one Akiba et al.
// 2017 make explicit:
//
//   - gradient reduction: every node reduces intra-node under Intra (all
//     nodes concurrently, each on its own local fabric), then the node
//     leaders exchange the node sums under Inter across the cluster fabric;
//
//   - weight broadcast: the root sends to the node leaders under Inter,
//     then every leader fans out intra-node under Intra, again with all
//     nodes concurrent.
//
// Per the package's reproducibility contract the hierarchy is pure
// schedule: reduced values stay canonical (float64 accumulation in shard
// order), so a hierarchical run is bit-identical to a flat run with the
// same shard split. What changes is the accounting — TierStats splits the
// schedule into the intra and inter fabrics so each tier can be priced on
// its own alpha-beta profile (comm.ExpectedTierStats is the closed-form
// twin, comm.AllreduceTime the two-fabric price).
//
// A flat world is not a second kind of topology: it is the P×1 layout
// (Flat), every worker its own node, the intra tier empty.
type Hierarchy struct {
	// Nodes is the node count — the size of the inter tier.
	Nodes int
	// PerNode is the worker count per node — the size of each intra tier.
	PerNode int
	// Intra is the within-node algorithm (NewHierarchy defaults it to
	// Ring, the bandwidth-optimal choice for fast local fabrics).
	Intra Algorithm
	// Inter is the cross-node algorithm run by the node leaders
	// (NewHierarchy defaults it to Tree, the latency-friendly choice for
	// the slower cluster fabric).
	Inter Algorithm
}

// NewHierarchy returns the default two-tier composition over nodes×perNode
// workers: ring inside each node, tree across node leaders.
func NewHierarchy(nodes, perNode int) Hierarchy {
	return Hierarchy{Nodes: nodes, PerNode: perNode, Intra: Ring, Inter: Tree}
}

// Flat returns a flat p-worker world under algo as the p×1 hierarchy: every
// worker is its own node and leader, algo is the exchange among them, and
// the intra tier is empty (every schedule over one worker is zero). It is
// the one place a flat world is given a layout — NewEngine resolves
// Config.Algo through it, cluster.Cluster.Hierarchy its flat clusters, and
// comm's closed forms take nothing else — so the two-tier schedules price a
// flat world exactly as its own closed forms would, at full strength and
// after membership changes alike.
func Flat(algo Algorithm, p int) Hierarchy {
	return Hierarchy{Nodes: p, PerNode: 1, Inter: algo}
}

// Workers returns the total worker count, Nodes·PerNode.
func (h Hierarchy) Workers() int { return h.Nodes * h.PerNode }

// FrontFilled returns the size list of a fleet of `world` live workers
// seated node by node from the front: full nodes of PerNode, then one partial
// node, drained nodes absent — the fleet left when workers are lost from
// the tail (the last node drains first and leaves the inter tier), or, for a
// flat layout, grown at it (world may exceed Workers: every extra worker is
// one more node of one). It is the sizes argument of the two-tier schedules
// and of comm's closed forms for such a fleet.
func (h Hierarchy) FrontFilled(world int) []int {
	sizes := make([]int, 0, (world+h.PerNode-1)/h.PerNode)
	for left := world; left > 0; left -= h.PerNode {
		sizes = append(sizes, min(h.PerNode, left))
	}
	return sizes
}

// String renders the layout as "NxM intra/inter", e.g. "2x4 ring/tree".
func (h Hierarchy) String() string {
	return fmt.Sprintf("%dx%d %s/%s", h.Nodes, h.PerNode, h.Intra, h.Inter)
}

// validate reports a layout that is not well-formed.
func (h Hierarchy) validate() error {
	if h.Nodes < 1 || h.PerNode < 1 {
		return fmt.Errorf("dist: invalid hierarchy %dx%d: need at least one node and one worker per node", h.Nodes, h.PerNode)
	}
	return nil
}

// TierStats splits a hierarchical schedule's counters by fabric tier, so
// intra-node traffic (cheap, concurrent across nodes) and inter-node
// traffic (the scaling bottleneck) can each be priced on their own
// alpha-beta profile. Total recovers the flat aggregate view.
type TierStats struct {
	// Intra is the within-node traffic, summed over all nodes; its Steps
	// count each wave of concurrent per-node rounds once.
	Intra CommStats
	// Inter is the cross-node traffic among the node leaders.
	Inter CommStats
}

// Add accumulates o into t, tier by tier.
func (t *TierStats) Add(o TierStats) {
	t.Intra.Add(o.Intra)
	t.Inter.Add(o.Inter)
}

// Total returns the aggregate schedule across both tiers — the flat
// CommStats view of the same traffic.
func (t TierStats) Total() CommStats {
	total := t.Intra
	total.Add(t.Inter)
	return total
}

// twoTier composes one per-tier schedule (ReduceSchedule or
// BroadcastSchedule) over a fleet: sizes lists the live-worker count of every
// surviving (non-empty) node, nil meaning full strength (h.Nodes nodes of
// h.PerNode). The intra-node collectives run concurrently on disjoint
// fabrics, so intra latency rounds are the maximum over nodes while messages
// and bytes sum; the inter tier is the schedule among the len(sizes)
// surviving node leaders — a node that lost all its workers has left the
// leader exchange.
func twoTier(schedule func(Algorithm, int, int64) CommStats, h Hierarchy, sizes []int, payloadBytes int64) TierStats {
	if sizes == nil {
		sizes = h.FrontFilled(h.Workers())
	}
	var intra CommStats
	for _, p := range sizes {
		s := schedule(h.Intra, p, payloadBytes)
		intra.Messages += s.Messages
		intra.Bytes += s.Bytes
		if s.Steps > intra.Steps {
			intra.Steps = s.Steps
		}
	}
	return TierStats{Intra: intra, Inter: schedule(h.Inter, len(sizes), payloadBytes)}
}

// degradedIntraBytesFactor returns the intra tier's aggregate bytes per
// payload byte over a degraded fleet — the sum of each surviving node's
// reduction byte factor — used by the engine to account non-uniform codec
// payloads exactly (see reduceBytesFactor).
func degradedIntraBytesFactor(h Hierarchy, sizes []int) int64 {
	var f int64
	for _, p := range sizes {
		f += reduceBytesFactor(h.Intra, p)
	}
	return f
}

// HierReduceSchedule returns the closed-form per-tier schedule of one
// hierarchical gradient reduction of a payloadBytes payload — exactly the
// counters the engine records per bucket at any membership, with sizes the
// live-worker counts of the surviving nodes (nil = full strength):
// concurrent intra-node reductions feeding one inter-node reduction among
// the node leaders. Pair with HierBroadcastSchedule for a full allreduce.
func HierReduceSchedule(h Hierarchy, sizes []int, payloadBytes int64) TierStats {
	return twoTier(ReduceSchedule, h, sizes, payloadBytes)
}

// HierBroadcastSchedule returns the closed-form per-tier schedule of one
// hierarchical broadcast over the same fleet description: root to the
// surviving node leaders on the inter fabric, then every leader fanning out
// within its node concurrently on the intra fabrics.
func HierBroadcastSchedule(h Hierarchy, sizes []int, payloadBytes int64) TierStats {
	return twoTier(BroadcastSchedule, h, sizes, payloadBytes)
}

// degradedSenderShare returns the tier-attributed resend traffic of one
// live worker's dropped (or dead-and-recomputed) reduction payload in a
// possibly degraded hierarchy: a surviving node leader re-sends its node
// sum on the inter fabric among the liveNodes leaders, a member re-sends
// on its node's intra fabric at the node's live size. The caller accounts
// the Retries event itself, once per drop.
func degradedSenderShare(h Hierarchy, leader bool, nodeSize, liveNodes int, payloadBytes int64) TierStats {
	var t TierStats
	if leader {
		msgs, bytes := senderShare(h.Inter, liveNodes, payloadBytes)
		t.Inter = CommStats{Messages: msgs, Bytes: bytes}
	} else {
		msgs, bytes := senderShare(h.Intra, nodeSize, payloadBytes)
		t.Intra = CommStats{Messages: msgs, Bytes: bytes}
	}
	return t
}

// checkHier panics unless bufs are h.Workers() equal-length buffers over a
// well-formed layout; it returns their length.
func checkHier(op string, h Hierarchy, bufs [][]float32) int {
	if err := h.validate(); err != nil {
		panic(err)
	}
	if len(bufs) != h.Workers() {
		panic(fmt.Sprintf("dist: %s: %d buffers for a %dx%d hierarchy", op, len(bufs), h.Nodes, h.PerNode))
	}
	return checkUniform(op, bufs)
}

// HierReduce performs the gradient-sum phase of one hierarchical allreduce
// over len(bufs) == h.Workers() equal-length buffers: the canonical sum of
// all buffers lands in bufs[0] (the global root — node 0's leader). When
// Inter is Ring, whose leader exchange leaves the sum on every leader, all
// node leaders receive it. The executed schedule is accounted per tier into
// tiers when non-nil.
//
// The sum is computed exactly as the flat Reduce computes it — canonical
// worker order, float64 accumulation — so hierarchical and flat reductions
// are bitwise identical; only the accounted schedule differs.
func HierReduce(h Hierarchy, bufs [][]float32, tiers *TierStats) {
	t := reduce("HierReduce", h, CanonicalF64, bufs)
	if tiers != nil {
		tiers.Add(t)
	}
}

// HierBroadcast distributes bufs[0] (the global root's buffer) to every
// worker through the two-tier fan-out — inter-node to the leaders, then
// intra-node — accounting the schedule per tier into tiers when non-nil.
// Paired with HierReduce it completes one hierarchical allreduce.
func HierBroadcast(h Hierarchy, bufs [][]float32, tiers *TierStats) {
	t := broadcast("HierBroadcast", h, bufs)
	if tiers != nil {
		tiers.Add(t)
	}
}
