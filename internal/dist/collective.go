package dist

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/par"
)

// Reduction selects the arithmetic of the gradient-sum phase — the one
// degree of freedom the reproducibility contract leaves open. Both
// disciplines are deterministic and independent of worker count, topology
// and goroutine chunking; they differ in accumulator precision, hence in
// rounding.
type Reduction int

const (
	// CanonicalF64 is the default: a strict left-to-right sum in canonical
	// shard order with float64 accumulation. Maximum precision, and with
	// AVX2 also the faster kernel: one pass keeps eight coordinates'
	// chains in registers while the shards stream past in order
	// (BenchmarkReduction, unweighted over 8 shards: about 17 GB/s against
	// pairwise-f32's 10 on a 2-vCPU AVX2 Xeon).
	CanonicalF64 Reduction = iota
	// PairwiseF32 sums in float32 through a fixed-shape pairwise tree
	// (internal/kernel): the tree depends only on the number of summands,
	// never on worker count or chunking, so results remain bit-identical
	// across P, topologies, shard-to-worker assignments and overlap — the
	// same invariances CanonicalF64 has — and the O(log n)·ε pairwise
	// error stays far below the naive float32 sum's. It is the
	// lower-precision contrast, not a speed-up: measured, it is the slower
	// of the two.
	PairwiseF32
)

// String implements fmt.Stringer.
func (r Reduction) String() string {
	switch r {
	case CanonicalF64:
		return "canonical-f64"
	case PairwiseF32:
		return "pairwise-f32"
	default:
		return fmt.Sprintf("Reduction(%d)", int(r))
	}
}

// ParseReduction reads a reduction name: a flag spelling ("canonical",
// "pairwise") or the String form ("canonical-f64", "pairwise-f32").
func ParseReduction(name string) (Reduction, error) {
	switch name {
	case "canonical", "canonical-f64":
		return CanonicalF64, nil
	case "pairwise", "pairwise-f32":
		return PairwiseF32, nil
	}
	return 0, fmt.Errorf("dist: unknown reduction %q (want canonical | pairwise)", name)
}

// Reduce performs the gradient-sum phase of one allreduce over the workers'
// equal-length buffers: the element-wise sum of all buffers lands in
// bufs[0] (the root). Under Ring — whose reduce-scatter + allgather leaves
// the result on every worker — all buffers receive the sum. The executed
// schedule is accounted into stats when non-nil.
//
// Per the package's reproducibility contract the sum is computed in
// canonical worker order with float64 accumulation, so all three algorithms
// return bitwise-identical values. ReduceWith selects the arithmetic.
func Reduce(algo Algorithm, bufs [][]float32, stats *CommStats) {
	ReduceWith(algo, CanonicalF64, bufs, stats)
}

// ReduceWith is Reduce under an explicit reduction policy. Either policy
// keeps the three algorithms bitwise identical to each other; what changes
// is the summation arithmetic itself (see Reduction).
func ReduceWith(algo Algorithm, policy Reduction, bufs [][]float32, stats *CommStats) {
	if len(bufs) == 0 {
		return
	}
	t := reduce("Reduce", Flat(algo, len(bufs)), policy, bufs)
	if stats != nil {
		stats.Add(t.Total())
	}
}

// Broadcast distributes bufs[0] (the root's buffer) to every other worker
// under the given topology, accounting the schedule into stats when
// non-nil. Paired with Reduce it completes one allreduce: afterwards every
// buffer holds the reduced value under any algorithm.
func Broadcast(algo Algorithm, bufs [][]float32, stats *CommStats) {
	if len(bufs) == 0 {
		return
	}
	t := broadcast("Broadcast", Flat(algo, len(bufs)), bufs)
	if stats != nil {
		stats.Add(t.Total())
	}
}

// reduce is the one reduction body, over any layout: the sum of all buffers
// lands in bufs[0] and, when Inter is Ring (whose leader exchange leaves it
// on every leader), on every node leader too — every worker of a flat world.
// It returns the executed schedule per tier.
func reduce(op string, h Hierarchy, policy Reduction, bufs [][]float32) TierStats {
	n := checkHier(op, h, bufs)
	if len(bufs) > 1 {
		sumInto(policy, bufs)
		if h.Inter == Ring {
			leaders := make([][]float32, h.Nodes)
			for node := range leaders {
				leaders[node] = bufs[node*h.PerNode]
			}
			fanOut(leaders)
		}
	}
	return HierReduceSchedule(h, nil, 4*int64(n))
}

// broadcast is the one broadcast body, over any layout: bufs[0] reaches
// every worker, and the executed schedule is returned per tier.
func broadcast(op string, h Hierarchy, bufs [][]float32) TierStats {
	n := checkHier(op, h, bufs)
	if len(bufs) > 1 {
		fanOut(bufs)
	}
	return HierBroadcastSchedule(h, nil, 4*int64(n))
}

// sumInto computes the element-wise sum of all buffers into bufs[0] under
// the selected policy, parallelized over coordinate chunks. Both policies
// are chunking-invariant (CanonicalF64 per coordinate trivially;
// PairwiseF32 because its tree runs over the worker index), which is what
// makes topology — and goroutine count — a pure accounting decision.
func sumInto(policy Reduction, bufs [][]float32) {
	defer kernel.StartPhase(kernel.PhaseReduce).End()
	root := bufs[0]
	par.ForGrain(len(root), 2048, func(lo, hi int) {
		sub := make([][]float32, len(bufs))
		for w, b := range bufs {
			sub[w] = b[lo:hi]
		}
		if policy == PairwiseF32 {
			kernel.PairwiseAccumulate(root[lo:hi], sub, nil)
		} else {
			kernel.CanonicalAccumulate(root[lo:hi], sub, nil)
		}
	})
}

// fanOut copies bufs[0] into every other buffer, parallelized over workers.
func fanOut(bufs [][]float32) {
	root := bufs[0]
	tasks := make([]func(), 0, len(bufs)-1)
	for w := 1; w < len(bufs); w++ {
		dst := bufs[w]
		tasks = append(tasks, func() { copy(dst, root) })
	}
	par.Do(tasks...)
}

// checkUniform panics unless all buffers share one length, which it returns.
func checkUniform(op string, bufs [][]float32) int {
	n := len(bufs[0])
	for w, b := range bufs {
		if len(b) != n {
			panic(fmt.Sprintf("dist: %s: buffer %d has %d elements, worker 0 has %d", op, w, len(b), n))
		}
	}
	return n
}
