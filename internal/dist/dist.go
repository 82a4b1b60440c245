// Package dist is the synchronous data-parallel engine: the layer the paper
// (and Akiba et al. 2017 before it) identifies as the scaling bottleneck of
// large-batch SGD. It provides
//
//   - package-level collectives (Reduce, Broadcast) over raw float32
//     buffers under three allreduce topologies — Central (parameter-server
//     star), Tree (binomial ⌈log₂P⌉ rounds, Table 2's model) and Ring
//     (bandwidth-optimal chunked reduce-scatter + allgather) — with exact
//     per-topology accounting of messages, payload bytes and latency rounds
//     in CommStats, cross-checked against internal/comm's closed forms;
//
//   - a composed two-tier collective (Hierarchy, HierReduce and
//     HierBroadcast): workers arranged into nodes reduce intra-node first
//     (default ring), node leaders exchange across the cluster fabric
//     (default tree), and the result fans back down — the KNL/Skylake
//     fabric split of the paper's fastest runs, with the schedule
//     accounted per tier (TierStats) so each fabric is priced on its own
//     alpha-beta profile;
//
//   - an Engine that drives W persistent worker goroutines in lockstep over
//     per-worker batch shards. It is one step template (Engine.step: batch
//     validation, ledger reset, the profile window, membership changes at
//     the step's boundaries, the shard plan, the step counter and the
//     loss) with two bodies — ComputeGradient, the every-step gradient
//     allreduce into the master, and LocalStep, local SGD with periodic
//     weight averaging (Config.SyncEvery) — sharing one worker-side shard
//     forward/backward, one bucket reduction (codec wire, schedule,
//     weighted accumulate, which applies the fp16 wire's rounding as it
//     reads each source) and one evaluation; one ledger (Report, kept
//     for the run and for the last step and written through a single add);
//     one topology: a flat Config.Algo world is the P×1 Hierarchy, so
//     every schedule is priced by the same two-tier closed forms; and one
//     parameter layout: every Param.W and Param.G views a run of the
//     engine's flat vectors, so a backward writes its shard's gradient in
//     place and a weight broadcast is one copy per replica. Around that:
//     gradient bucketing (chunked reduction, the overlap-friendly
//     granularity real frameworks use), bucket reductions overlapped with
//     the backward pass (Config.Overlap: each bucket's allreduce fires the
//     moment its last gradient coordinate lands on every shard, driven by
//     nn.Network's gradient-ready notification through a countdown that is
//     plain arithmetic over the parameter offsets, with the schedule split
//     into hidden vs exposed in OverlapStats — the reduce stage is one loop
//     either way, fed by those hooks or, without Overlap, after the
//     barrier), optional payload compression
//     (FP16Codec or OneBitCodec 1-bit SGD via the Codec hook) and
//     deterministic fault injection (dropped payloads are re-requested,
//     straggling workers are awaited) for scenario diversity;
//
//   - elastic membership (Config.Elastic): when the fault plan kills a
//     worker permanently (FaultPlan.Dead — the preemptible-node scenario),
//     the engine evicts it after EvictAfter consecutive failed recoveries,
//     rebalances the logical shards over the surviving P−1 workers
//     (data.Spans), shrinks the topology (a hierarchy node losing all its
//     workers leaves the inter tier), resynchronizes the weights, and
//     continues lockstep at the smaller world — with the whole episode
//     accounted in MembershipStats. Joins (FaultPlan.Join) are the mirror
//     image. The membership is one value, a roster whose admit, strike and
//     evict transitions are pure functions of the roster, the fault plan,
//     the step and the eviction threshold; the engine only applies their
//     effects (worker goroutines, the resync broadcast, the ledger). Without Elastic a permanently dead worker surfaces a typed
//     *WorkerDeadError instead of being retried forever.
//
// # Reproducibility contract
//
// The engine executes the reduction arithmetic once per coordinate — under
// the default CanonicalF64 policy a strict canonical-shard-order float64
// accumulation, under PairwiseF32 a fixed-shape pairwise float32 tree
// whose shape depends only on the live shard count (Config.Reduction; both
// implemented in internal/kernel) — and separately accounts the message
// schedule of the selected topology. Consequences, all tested for both
// policies:
//
//   - the three algorithms — and any two-tier Hierarchy composed from
//     them — produce bitwise-identical reductions (real collectives do not
//     have this property; a reproduction harness wants it, so topology
//     choice is a pure cost/accounting decision);
//
//   - the numerical result depends only on Config.Shards — the logical
//     batch split — never on the physical worker count, so a Workers=4 run
//     with Shards=4 is bit-identical to a Workers=1 run with Shards=4;
//
//   - fault injection perturbs only the schedule accounting (retries,
//     stalls), never the reduced values, so a faulty run recovers to the
//     bitwise result of a fault-free run;
//
//   - elastic eviction is pure schedule surgery: given the same fault plan
//     and policy, a degrading run is bit-identical across topologies, and
//     every post-eviction step is bit-identical to a fresh P−1 run started
//     from the rebalanced weights (the default per-worker shard split
//     follows the world size down, so the degraded engine and the fresh
//     small one compute the very same shard spans).
package dist

import "fmt"

// Algorithm selects the allreduce communication pattern.
type Algorithm int

// The three topologies the paper's analysis compares (Table 2, Figure 9).
const (
	// Central is the parameter-server star: every worker sends to the
	// root, which reduces and sends back. Serialized at the root, so both
	// message count and latency rounds grow linearly in P.
	Central Algorithm = iota
	// Tree is the binomial tree: ⌈log₂P⌉ combining rounds up, the same
	// back down. P−1 messages each way, logarithmic latency.
	Tree
	// Ring is the bandwidth-optimal chunked ring: a reduce-scatter
	// followed by an allgather, 2(P−1) rounds of P concurrent chunk
	// messages; each link carries only ~1/P of the payload per round.
	Ring
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case Central:
		return "central"
	case Tree:
		return "tree"
	case Ring:
		return "ring"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm is the inverse of String: "central", "tree" or "ring".
func ParseAlgorithm(name string) (Algorithm, error) {
	for _, a := range []Algorithm{Central, Tree, Ring} {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("dist: unknown algorithm %q (want central | tree | ring)", name)
}

// CommStats counts the data movement of the executed schedules. The
// aggregate view (total messages and bytes across all links) is what
// internal/comm's Figure 9/10 arithmetic models; Steps counts latency
// rounds, the α terms of the alpha-beta cost model.
type CommStats struct {
	// Messages is the number of point-to-point messages sent.
	Messages int64
	// Bytes is the total payload moved, summed over all messages.
	Bytes int64
	// Steps is the number of serialized communication rounds: messages
	// that can fly concurrently (a ring round, one binomial-tree level)
	// count as one step.
	Steps int64
	// Retries counts dropped payloads that were re-requested and resent
	// by the fault-recovery path.
	Retries int64
	// Stalls counts lockstep rounds that waited on an injected straggler.
	Stalls int64
}

// Add accumulates o into s.
func (s *CommStats) Add(o CommStats) {
	s.Messages += o.Messages
	s.Bytes += o.Bytes
	s.Steps += o.Steps
	s.Retries += o.Retries
	s.Stalls += o.Stalls
}

// OverlapStats splits a schedule's latency rounds and payload bytes into the
// part hidden behind the backward pass and the exposed remainder — the
// accounting view of communication/computation overlap (Das et al. 2016;
// Goyal et al. 2017). Under Config.Overlap the engine classifies each
// gradient bucket structurally: a bucket whose reduction launches while some
// worker is still back-propagating earlier layers is hidden; the bucket
// covering the network's first parameter — which only becomes ready when the
// backward pass ends — is exposed, as are weight broadcasts and
// fault-recovery traffic (both happen at the step barrier). The invariant
// HiddenRounds+ExposedRounds == CommStats.Steps and HiddenBytes+ExposedBytes
// == CommStats.Bytes holds for every step; with Overlap disabled everything
// is exposed.
type OverlapStats struct {
	// HiddenRounds and HiddenBytes count the latency rounds and payload of
	// bucket reductions that fired inside the backward pass.
	HiddenRounds, HiddenBytes int64
	// ExposedRounds and ExposedBytes count everything the step waits on:
	// the final bucket's reduction, weight broadcasts, recovery resends.
	ExposedRounds, ExposedBytes int64
}

// Add accumulates p into o.
func (o *OverlapStats) Add(p OverlapStats) {
	o.HiddenRounds += p.HiddenRounds
	o.HiddenBytes += p.HiddenBytes
	o.ExposedRounds += p.ExposedRounds
	o.ExposedBytes += p.ExposedBytes
}

// add files one schedule under the hidden or exposed side of the split.
func (o *OverlapStats) add(s CommStats, hidden bool) {
	if hidden {
		o.HiddenRounds += s.Steps
		o.HiddenBytes += s.Bytes
		return
	}
	o.ExposedRounds += s.Steps
	o.ExposedBytes += s.Bytes
}

// Rounds returns the total latency rounds across both sides, which equals
// the matching CommStats.Steps.
func (o OverlapStats) Rounds() int64 { return o.HiddenRounds + o.ExposedRounds }

// TotalBytes returns the total payload across both sides, which equals the
// matching CommStats.Bytes.
func (o OverlapStats) TotalBytes() int64 { return o.HiddenBytes + o.ExposedBytes }

// HiddenByteFrac returns the fraction of payload bytes hidden behind the
// backward pass (0 when nothing moved).
func (o OverlapStats) HiddenByteFrac() float64 {
	total := o.TotalBytes()
	if total == 0 {
		return 0
	}
	return float64(o.HiddenBytes) / float64(total)
}

// ceilLog2 returns ⌈log₂ p⌉ for p >= 1.
func ceilLog2(p int) int64 {
	var n int64
	for v := 1; v < p; v *= 2 {
		n++
	}
	return n
}

// ReduceSchedule returns the closed-form schedule of one reduction of a
// payloadBytes payload across p workers — the gradient-sum phase only
// (pair with BroadcastSchedule for a full allreduce), exactly the counters
// the engine records per bucket and tier. For Ring the "reduction" is a
// reduce-scatter plus allgather, which already leaves the result on every
// worker; its paired broadcast is the binomial weight broadcast the engine
// issues after the optimizer step.
func ReduceSchedule(algo Algorithm, p int, payloadBytes int64) CommStats {
	if p <= 1 {
		return CommStats{}
	}
	switch algo {
	case Central:
		// P−1 workers each send their full payload to the root, which
		// applies them serially.
		return CommStats{
			Messages: int64(p - 1),
			Bytes:    int64(p-1) * payloadBytes,
			Steps:    int64(p - 1),
		}
	case Tree:
		// Binomial combine: every non-root node sends exactly once, in
		// ⌈log₂P⌉ concurrent levels.
		return CommStats{
			Messages: int64(p - 1),
			Bytes:    int64(p-1) * payloadBytes,
			Steps:    ceilLog2(p),
		}
	case Ring:
		// Reduce-scatter then allgather: 2(P−1) rounds, each moving all
		// P chunks (~1/P of the payload each) concurrently around the
		// ring. Aggregate bytes per round ≈ the payload; per-link bytes
		// are 1/P of it, which is where the bandwidth optimality lives.
		return CommStats{
			Messages: 2 * int64(p) * int64(p-1),
			Bytes:    2 * int64(p-1) * payloadBytes,
			Steps:    2 * int64(p-1),
		}
	default:
		panic(fmt.Sprintf("dist: unknown algorithm %v", algo))
	}
}

// BroadcastSchedule returns the closed-form schedule of distributing a
// payloadBytes payload from the root to the other p−1 workers.
func BroadcastSchedule(algo Algorithm, p int, payloadBytes int64) CommStats {
	if p <= 1 {
		return CommStats{}
	}
	switch algo {
	case Central:
		// The server sends P−1 full copies, serially.
		return CommStats{
			Messages: int64(p - 1),
			Bytes:    int64(p-1) * payloadBytes,
			Steps:    int64(p - 1),
		}
	case Tree, Ring:
		// Binomial broadcast: the set of informed workers doubles each
		// round. Ring pairs its allreduce with the same binomial weight
		// broadcast (matching comm.ExpectedStats' arithmetic).
		return CommStats{
			Messages: int64(p - 1),
			Bytes:    int64(p-1) * payloadBytes,
			Steps:    ceilLog2(p),
		}
	default:
		panic(fmt.Sprintf("dist: unknown algorithm %v", algo))
	}
}

// reduceBytesFactor returns the schedule's aggregate bytes per payload byte:
// ReduceSchedule(algo, p, B).Bytes == reduceBytesFactor(algo, p) * B. The
// engine's codec accounting uses it to price non-uniform wire payloads
// exactly (multiply the summed wire bytes first, divide by the shard count
// last) instead of truncating a per-shard mean.
func reduceBytesFactor(algo Algorithm, p int) int64 {
	if p <= 1 {
		return 0
	}
	switch algo {
	case Central, Tree:
		return int64(p - 1)
	case Ring:
		return 2 * int64(p-1)
	default:
		panic(fmt.Sprintf("dist: unknown algorithm %v", algo))
	}
}

// senderShare returns the message and byte count a single non-root worker
// originates in one ReduceSchedule — the unit of loss re-requested by the
// fault-recovery path when that worker's payload is dropped.
func senderShare(algo Algorithm, p int, payloadBytes int64) (msgs, bytes int64) {
	if p <= 1 {
		return 0, 0
	}
	switch algo {
	case Central, Tree:
		return 1, payloadBytes
	case Ring:
		// A ring participant forwards one chunk per round for 2(P−1)
		// rounds; restarting its pass resends all of them.
		return 2 * int64(p-1), 2 * int64(p-1) * payloadBytes / int64(p)
	default:
		panic(fmt.Sprintf("dist: unknown algorithm %v", algo))
	}
}
