// Package comm implements the paper's communication analysis: the
// alpha-beta (latency/bandwidth) cost model over the network fabrics of
// Table 11, per-algorithm allreduce cost formulas, the iteration/message/
// volume arithmetic behind Table 2 and Figures 8-10, and the energy model
// of Table 12.
//
// The package is purely analytic — it prices communication patterns that
// internal/dist executes for real — so the measured byte/message counters
// from dist can be cross-checked against these formulas in tests.
//
// The collective closed forms come in two layers. Two per-tier primitives
// hold the only per-algorithm arithmetic: ExpectedStats(algo, p, B), the
// counters of one allreduce among p workers, and Network.AllreduceTime(algo,
// p, B), its alpha-beta price. Everything else is one family over a fleet
// description (h dist.Hierarchy, sizes []int) — sizes the live-worker count
// of every surviving node, nil meaning full strength, a flat world written
// dist.Flat(algo, p): ExpectedTierStats, AllreduceTime, ExpectedOverlapStats,
// OverlapSchedule / OverlappedAllreduceTime and ExpectedLocalSGDTierStats.
// There is no flat, hierarchical or degraded variant of any of them: a flat
// world's intra tier is empty (an allreduce among one worker moves nothing
// and costs nothing), a full fleet is the uniform size list, and a world
// that shrank or grew is the size list it has now.
//
// Every closed form here is independent of the engine's reduction policy
// (dist.Config.Reduction): CanonicalF64 and PairwiseF32 change only the
// summation arithmetic inside a worker, never the message schedule, so the
// same closed forms hold for both. The *compute* side of the hot loop is
// measured, not modeled: the per-step phase profiler (dist.ProfileStats,
// the HotLoop study) reports where step wall time actually goes.
package comm

import (
	"fmt"

	"repro/internal/dist"
)

// Network is an alpha-beta fabric profile: sending an m-byte message costs
// Alpha + m·Beta seconds.
type Network struct {
	Name  string
	Alpha float64 // latency, seconds per message
	Beta  float64 // inverse bandwidth, seconds per byte
}

// The paper's Table 11 fabrics.
var (
	MellanoxFDR = Network{Name: "Mellanox 56Gb/s FDR IB", Alpha: 0.7e-6, Beta: 0.2e-9}
	IntelQDR    = Network{Name: "Intel 40Gb/s QDR IB", Alpha: 1.2e-6, Beta: 0.3e-9}
	Intel10GbE  = Network{Name: "Intel 10GbE NetEffect NE020", Alpha: 7.2e-6, Beta: 0.9e-9}
)

// Table11 returns the fabric profiles in the paper's order.
func Table11() []Network {
	return []Network{MellanoxFDR, IntelQDR, Intel10GbE}
}

// AllreduceTime is the per-tier price primitive: one gradient allreduce of
// `bytes` payload among the p workers of a single tier on this fabric, under
// the given algorithm (the package-level AllreduceTime composes two of these
// into a fleet's price):
//
//	Central: 2(P−1)·(α + Bβ)        — serialized at the parameter server
//	Tree:    2·⌈log₂P⌉·(α + Bβ)     — Table 2's log(P) model
//	Ring:    2(P−1)·α + 2·(P−1)/P·Bβ — bandwidth optimal
//
// The factor 2 covers the paper's two phases: gradient sum and weight
// broadcast (or reduce-scatter + allgather for the ring).
func (n Network) AllreduceTime(algo dist.Algorithm, p int, bytes int64) float64 {
	if p <= 1 {
		return 0
	}
	b := float64(bytes)
	switch algo {
	case dist.Central:
		return 2 * float64(p-1) * (n.Alpha + b*n.Beta)
	case dist.Tree:
		return 2 * float64(ceilLog2(p)) * (n.Alpha + b*n.Beta)
	case dist.Ring:
		return 2*float64(p-1)*n.Alpha + 2*float64(p-1)/float64(p)*b*n.Beta
	default:
		panic(fmt.Sprintf("comm: unknown algorithm %v", algo))
	}
}

// ceilLog2 returns ⌈log₂ p⌉ for p >= 1.
func ceilLog2(p int) int {
	n, v := 0, 1
	for v < p {
		v *= 2
		n++
	}
	return n
}

// ExpectedStats is the per-tier counter primitive: the closed-form
// dist.CommStats of one full allreduce (gradient sum + weight broadcast) of a
// payloadBytes payload among the p workers of a single tier — derived
// independently of internal/dist's schedule tables and cross-checked against
// the counters its collectives record (ExpectedTierStats composes two of
// these into a fleet's schedule):
//
//	Central: msgs 2(P−1), bytes 2(P−1)·B, steps 2(P−1)
//	Tree:    msgs 2(P−1), bytes 2(P−1)·B, steps 2⌈log₂P⌉
//	Ring:    msgs 2P(P−1)+(P−1), bytes 3(P−1)·B, steps 2(P−1)+⌈log₂P⌉
//
// (Ring's reduce-scatter + allgather moves 2(P−1)·B aggregate bytes in
// 2(P−1) rounds of P concurrent chunk messages; its paired binomial weight
// broadcast adds (P−1) messages of the full payload.)
func ExpectedStats(algo dist.Algorithm, p int, payloadBytes int64) dist.CommStats {
	if p <= 1 {
		return dist.CommStats{}
	}
	pm := int64(p - 1)
	switch algo {
	case dist.Central:
		return dist.CommStats{Messages: 2 * pm, Bytes: 2 * pm * payloadBytes, Steps: 2 * pm}
	case dist.Tree:
		return dist.CommStats{Messages: 2 * pm, Bytes: 2 * pm * payloadBytes, Steps: 2 * int64(ceilLog2(p))}
	case dist.Ring:
		return dist.CommStats{
			Messages: 2*int64(p)*pm + pm,
			Bytes:    3 * pm * payloadBytes,
			Steps:    2*pm + int64(ceilLog2(p)),
		}
	default:
		panic(fmt.Sprintf("comm: unknown algorithm %v", algo))
	}
}

// ExpectedTierStats returns the closed-form per-tier schedule of one full
// allreduce (intra-node reduce, exchange among the node leaders, broadcast
// back down) of a payloadBytes payload over the fleet (h, sizes) — the
// analytic twin of the per-tier counters internal/dist records when
// executing the same composed schedule, cross-checked exactly in tests.
//
// Each tier is ExpectedStats of its own allreduce: the intra tier sums
// ExpectedStats(h.Intra, size, B) messages and bytes over the concurrent
// per-node groups, with latency rounds counted once — the nodes run on
// disjoint fabrics, so the largest one paces the tier — and the inter tier
// is ExpectedStats(h.Inter, ·, B) among the leaders of the surviving nodes
// (a node that lost all its workers has left the exchange). For a flat world
// (dist.Flat) the intra tier is zero and the inter tier is the primitive at
// the live world size, whether that world is the one the run started with,
// what evictions left of it, or what joins grew it to; restoration is
// degradation run backwards.
func ExpectedTierStats(h dist.Hierarchy, sizes []int, payloadBytes int64) dist.TierStats {
	if sizes == nil {
		sizes = h.FrontFilled(h.Workers())
	}
	var intra dist.CommStats
	for _, p := range sizes {
		s := ExpectedStats(h.Intra, p, payloadBytes)
		intra.Messages += s.Messages
		intra.Bytes += s.Bytes
		intra.Steps = max(intra.Steps, s.Steps)
	}
	return dist.TierStats{Intra: intra, Inter: ExpectedStats(h.Inter, len(sizes), payloadBytes)}
}

// tierWorlds returns the two world sizes that price the fleet (h, sizes):
// the largest surviving node (nodes run concurrently on disjoint fabrics, so
// it paces the intra tier) and the number of surviving nodes (the leader
// exchange's world).
func tierWorlds(h dist.Hierarchy, sizes []int) (intra, inter int) {
	if sizes == nil {
		return h.PerNode, h.Nodes
	}
	for _, p := range sizes {
		intra = max(intra, p)
	}
	return intra, len(sizes)
}

// AllreduceTime prices one allreduce of `bytes` payload over the fleet
// (h, sizes) with each tier on its own fabric: the intra-node phases (reduce
// on the way up, fan-out on the way down), concurrent across nodes, plus
// the leader exchange —
//
//	T = intra.AllreduceTime(h.Intra, largest node) + inter.AllreduceTime(h.Inter, surviving nodes)
//
// This is the composition the paper's fastest clusters exploit: the P-worker
// cost on the slow fabric is replaced by a PerNode-sized cost on the fast
// local fabric plus a Nodes-sized cost on the slow one. A flat world's first
// term is exactly zero (one worker per node), so its price is the per-tier
// primitive on the inter fabric and the intra fabric is never consulted.
func AllreduceTime(intra, inter Network, h dist.Hierarchy, sizes []int, bytes int64) float64 {
	largest, nodes := tierWorlds(h, sizes)
	return intra.AllreduceTime(h.Intra, largest, bytes) + inter.AllreduceTime(h.Inter, nodes, bytes)
}

// TimeFromStats prices a recorded (or expected) schedule on the fabric
// using the aggregate alpha-beta view: every latency round costs Alpha and
// every payload byte costs Beta — applied to one tier's counters (or, for
// single-fabric comparisons, to TierStats.Total()). It complements
// AllreduceTime, which models the per-worker critical path rather than the
// aggregate traffic.
func (n Network) TimeFromStats(s dist.CommStats) float64 {
	return float64(s.Steps)*n.Alpha + float64(s.Bytes)*n.Beta
}

// Iterations returns the paper's analytic E·n/B iteration count (Table 2,
// Figure 8), rounding the exact ratio. Table 2's rows (e.g. B=4096 →
// 31,250) use this idealized arithmetic even when B does not divide n.
func Iterations(epochs, datasetSize, batch int) int64 {
	exact := float64(epochs) * float64(datasetSize) / float64(batch)
	return int64(exact + 0.5)
}

// TotalMessages returns Figure 9's series: the number of messages a full
// training run sends. Message count per iteration is algorithm- and
// P-dependent; the paper's simplified analysis treats it as proportional to
// iterations, which holds for fixed algorithm and P.
func TotalMessages(algo dist.Algorithm, p, epochs, datasetSize, batch int) int64 {
	return Iterations(epochs, datasetSize, batch) * ExpectedStats(algo, p, 0).Messages
}

// TotalVolumeBytes returns Figure 10's series: the paper's communication
// volume |W|·E·n/B, in bytes (weightBytes = 4|W|).
func TotalVolumeBytes(weightBytes int64, epochs, datasetSize, batch int) int64 {
	return Iterations(epochs, datasetSize, batch) * weightBytes
}
