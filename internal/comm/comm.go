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
// Every closed form here is independent of the engine's reduction policy
// (dist.Config.Reduction): CanonicalF64 and PairwiseF32 change only the
// summation arithmetic inside a worker, never the message schedule, so the
// same ExpectedStats/ExpectedTierStats/ExpectedOverlapStats twins hold for
// both. The *compute* side of the hot loop is measured, not modeled: the
// per-step phase profiler (dist.ProfileStats, the HotLoop study) reports
// where step wall time actually goes.
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

// PointToPoint returns the time to move one message of the given size.
func (n Network) PointToPoint(bytes int64) float64 {
	return n.Alpha + float64(bytes)*n.Beta
}

// AllreduceTime prices one gradient allreduce of `bytes` payload across p
// workers under the given algorithm:
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

// MessagesPerAllreduce returns the total point-to-point message count of
// one allreduce (sum + broadcast) under the algorithm, matching what
// internal/dist's counters record. It is the Messages column of
// ExpectedStats (Central/Tree: 2(P−1); Ring: reduce-scatter and allgather
// at P messages per step for 2(P−1) steps, plus the paired binomial
// weight broadcast).
func MessagesPerAllreduce(algo dist.Algorithm, p int) int64 {
	return ExpectedStats(algo, p, 0).Messages
}

// ExpectedStats returns the closed-form dist.CommStats of one full
// allreduce (gradient sum + weight broadcast) of a payloadBytes payload
// across p workers — the analytic twin of the counters internal/dist
// records while executing the same schedule, cross-checked in tests:
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
// hierarchical allreduce (intra-node reduce, inter-node exchange among the
// node leaders, broadcast back down) of a payloadBytes payload — the
// analytic twin of the per-tier counters internal/dist records when
// executing the same composed schedule, cross-checked exactly in tests.
//
// Each tier is the closed form of its own flat allreduce: the intra tier
// is ExpectedStats(h.Intra, h.PerNode, B) with messages and bytes summed
// over the h.Nodes concurrent per-node groups (latency rounds counted
// once — the nodes run on disjoint fabrics), and the inter tier is
// ExpectedStats(h.Inter, h.Nodes, B) among the leaders.
func ExpectedTierStats(h dist.Hierarchy, payloadBytes int64) dist.TierStats {
	intra := ExpectedStats(h.Intra, h.PerNode, payloadBytes)
	intra.Messages *= int64(h.Nodes)
	intra.Bytes *= int64(h.Nodes)
	return dist.TierStats{Intra: intra, Inter: ExpectedStats(h.Inter, h.Nodes, payloadBytes)}
}

// HierarchicalAllreduceTime prices one two-tier allreduce of `bytes`
// payload: the intra-node phases (reduce on the way up, fan-out on the way
// down) on the intra fabric, concurrently across nodes, plus the leader
// exchange on the inter fabric —
//
//	T = T_intra(h.Intra, h.PerNode) + T_inter(h.Inter, h.Nodes)
//
// with each term the corresponding flat AllreduceTime. This is the
// composition the paper's fastest clusters exploit: the P-worker flat cost
// on the slow fabric is replaced by a PerNode-sized cost on the fast local
// fabric plus an Nodes-sized cost on the slow one.
func HierarchicalAllreduceTime(intra, inter Network, h dist.Hierarchy, bytes int64) float64 {
	return intra.AllreduceTime(h.Intra, h.PerNode, bytes) + inter.AllreduceTime(h.Inter, h.Nodes, bytes)
}

// TimeFromTierStats prices a recorded (or expected) two-tier schedule with
// each tier on its own fabric, using the same aggregate alpha-beta view as
// TimeFromStats.
func TimeFromTierStats(intra, inter Network, t dist.TierStats) float64 {
	return intra.TimeFromStats(t.Intra) + inter.TimeFromStats(t.Inter)
}

// TimeFromStats prices a recorded (or expected) schedule on the fabric
// using the aggregate alpha-beta view: every latency round costs Alpha and
// every payload byte costs Beta. It complements AllreduceTime, which models
// the per-worker critical path rather than the aggregate traffic.
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
	return Iterations(epochs, datasetSize, batch) * MessagesPerAllreduce(algo, p)
}

// TotalVolumeBytes returns Figure 10's series: the paper's communication
// volume |W|·E·n/B, in bytes (weightBytes = 4|W|).
func TotalVolumeBytes(weightBytes int64, epochs, datasetSize, batch int) int64 {
	return Iterations(epochs, datasetSize, batch) * weightBytes
}
