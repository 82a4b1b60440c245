package dist

import "fmt"

// DefaultEvictAfter is the eviction threshold used when Elastic.EvictAfter
// is zero: a worker is declared dead after this many consecutive failed
// recoveries.
const DefaultEvictAfter = 3

// Elastic is the engine's elastic-membership policy (ROADMAP: "Elastic
// membership"). Without it the engine recovers every fault in place and a
// permanently dead worker surfaces a *WorkerDeadError; with it the engine
// runs a small membership state machine per worker:
//
//	healthy --fault plan marks worker dead--> suspected
//	suspected --recovery fails EvictAfter consecutive steps--> evicted
//	suspected --fault plan schedules a return--> healthy (resynced)
//	evicted --fault plan schedules a return--> healthy (rejoined)
//	pending --join step reached--> healthy (joined)
//
// (pending is the state of a fresh replica whose FaultPlan.Join step has
// not arrived yet: it holds no shards, runs no goroutine, and occupies no
// hierarchy-node seat.)
//
// Eviction removes the worker from the collective at the end of the step
// that crossed the threshold:
//
//   - the worker's goroutine is released and its gradient-notify hook (the
//     overlap scheduler's input) is unhooked — the scheduler's bucket
//     cover maps depend only on the parameter layout, and its per-step
//     countdowns rescale to the surviving shard count automatically;
//   - the logical shard spans are recomputed over the surviving P−1 workers
//     via data.Spans — with the default split (Config.Shards left zero, no
//     codec) the shard count follows the world size down, so the
//     post-eviction split is exactly the split a fresh P−1 engine would
//     use; an explicitly pinned Shards stays pinned (pinned runs keep
//     their bit-identity promise), as does any run with a Codec (slot-keyed
//     codec state must never remap onto a different shard's data), and then
//     only the shard→worker assignment rebalances;
//   - the topology is rebuilt: flat central/tree/ring schedules re-price at
//     P−1, and a Hierarchy drops the worker from its node — a node losing
//     all its workers shrinks the inter tier (its leader leaves the leader
//     exchange);
//   - the master re-broadcasts the weights to the survivors (the
//     membership-epoch resynchronization), accounted — exposed — into the
//     step's CommStats and into MembershipStats.RebalancedBytes.
//
// Admission is the exact mirror, at the start of the step FaultPlan.Join
// names (so the step itself already runs at the grown world):
//
//   - the worker's goroutine starts (or restarts, for an evicted returner)
//     and its gradient-notify hook is re-installed — the overlap
//     scheduler's per-step countdowns rescale to the grown shard count
//     automatically;
//   - the shard split recomputes over the P+1 workers: the default
//     world-tracking split grows to exactly the split a fresh P+1 engine
//     would use, while pinned and codec-bearing splits keep their shard
//     count (slot-keyed codec residuals never remap) and only reassign
//     owners;
//   - the topology re-forms: flat schedules re-price at P+1, and the
//     worker takes its seat back in its Hierarchy node in ascending worker
//     order — so a node returning from empty rejoins the inter tier, and
//     node leadership deterministically restores to the lowest live index;
//   - the master warm-starts the grown fleet with a weight broadcast at
//     the new world size, accounted — exposed — into the step's CommStats
//     and into MembershipStats.JoinedBytes.
//
// Determinism contract (tested at collective, engine and trainer level):
// given the same fault plan and eviction policy, the run is bit-identical
// across topologies; every post-eviction step is bit-identical to a fresh
// P−1 run started from the rebalanced weights; and every post-join step is
// bit-identical to a fresh P+1 run started from the broadcast weights (for
// a fresh run with the same pinned Shards and codec state when those are
// set — a data-dependent codec's error feedback carries across the
// membership change exactly as it would on the surviving hardware).
// Membership changes are pure schedule surgery — the reduced values never
// depend on which workers carried the shards.
type Elastic struct {
	// EvictAfter is the number of consecutive failed recoveries after
	// which a dead worker is evicted; 0 means DefaultEvictAfter. The
	// master (worker 0) is never evicted.
	EvictAfter int
}

// evictAfter returns the effective threshold.
func (p *Elastic) evictAfter() int {
	if p == nil || p.EvictAfter <= 0 {
		return DefaultEvictAfter
	}
	return p.EvictAfter
}

// MembershipStats accounts the engine's elastic-membership activity: how
// often the world shrank and grew, what the rebalances moved, and how many
// steps ran at each world size. The resynchronization traffic is
// additionally folded into the ordinary CommStats (always exposed —
// membership changes happen at the step barrier), so Engine.StepStats
// reflects a membership change's full schedule cost.
type MembershipStats struct {
	// Evictions is the number of workers removed from the collective.
	Evictions int64
	// Joins is the number of admissions: fresh replicas entering, evicted
	// workers rejoining, and suspected workers whose outage ended before
	// eviction (each resynchronized the same way).
	Joins int64
	// RebalancedShards counts the logical shards that had to find new
	// owners because the world shrank: each evicted worker contributes
	// the shards it owned in the membership assignment at eviction time.
	RebalancedShards int64
	// JoinedShards counts the logical shards that moved onto admitted
	// workers: each joiner contributes the shards it owns in the
	// membership assignment right after admission.
	JoinedShards int64
	// RebalancedBytes is the wire payload of the post-eviction weight
	// resynchronization broadcasts, as accounted by the executed schedule.
	RebalancedBytes int64
	// JoinedBytes is the wire payload of the post-join warm-start
	// broadcasts, as accounted by the executed schedule at the grown
	// world size.
	JoinedBytes int64
	// StepsAtWorld counts completed gradient steps by world size:
	// StepsAtWorld[p] steps ran with p live workers. The slice is sized
	// initial-workers+1; evictions and joins move steps between entries,
	// never past the replica count.
	StepsAtWorld []int64
	// Events is the membership timeline: one entry per eviction or
	// admission, in the order they happened (Step is nondecreasing).
	Events []MembershipEvent
}

// MembershipEvent is one entry of the membership timeline: a worker
// leaving or entering the collective at a step boundary.
type MembershipEvent struct {
	// Step is the first step the changed membership is in effect for.
	Step int64
	// Worker is the worker that left or entered.
	Worker int
	// Join is true for admissions, false for evictions.
	Join bool
	// World is the world size after the change.
	World int
}

// String renders the event compactly: "+3@12" is worker 3 joining in time
// for step 12, "-3@12" worker 3 evicted from step 12 on.
func (ev MembershipEvent) String() string {
	sign := "-"
	if ev.Join {
		sign = "+"
	}
	return fmt.Sprintf("%s%d@%d", sign, ev.Worker, ev.Step)
}

// Add accumulates o into m, growing the world histogram as needed and
// appending o's timeline entries (chronological as long as the summands
// are added in order, the way the trainer accumulates epochs).
func (m *MembershipStats) Add(o MembershipStats) {
	m.Evictions += o.Evictions
	m.Joins += o.Joins
	m.RebalancedShards += o.RebalancedShards
	m.JoinedShards += o.JoinedShards
	m.RebalancedBytes += o.RebalancedBytes
	m.JoinedBytes += o.JoinedBytes
	if len(o.StepsAtWorld) > len(m.StepsAtWorld) {
		grown := make([]int64, len(o.StepsAtWorld))
		copy(grown, m.StepsAtWorld)
		m.StepsAtWorld = grown
	}
	for p, s := range o.StepsAtWorld {
		m.StepsAtWorld[p] += s
	}
	m.Events = append(m.Events, o.Events...)
}

// EventTimeline renders the membership events in order, e.g. "-3@4 +3@9"
// for worker 3 evicted from step 4 and readmitted at step 9; "-" when the
// membership never changed.
func (m MembershipStats) EventTimeline() string {
	if len(m.Events) == 0 {
		return "-"
	}
	out := ""
	for i, ev := range m.Events {
		if i > 0 {
			out += " "
		}
		out += ev.String()
	}
	return out
}

// Steps returns the total steps across all world sizes.
func (m MembershipStats) Steps() int64 {
	var n int64
	for _, s := range m.StepsAtWorld {
		n += s
	}
	return n
}

// Timeline renders the world-size history compactly, largest world first,
// e.g. "4x12 3x8" for twelve steps at P=4 then eight at P=3.
func (m MembershipStats) Timeline() string {
	out := ""
	for p := len(m.StepsAtWorld) - 1; p >= 0; p-- {
		if m.StepsAtWorld[p] == 0 {
			continue
		}
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%dx%d", p, m.StepsAtWorld[p])
	}
	if out == "" {
		return "-"
	}
	return out
}

// WorkerDeadError reports a worker whose reduction payload can no longer be
// recovered: the fault plan marked it permanently unreachable and elastic
// membership is disabled, so the engine surfaces the condition instead of
// retrying the worker forever at the step barrier. Enable Config.Elastic to
// have the engine evict the worker and continue on the survivors.
type WorkerDeadError struct {
	// Worker is the unreachable worker's index.
	Worker int
	// Step is the step whose reduction could not be recovered.
	Step int64
}

// Error implements error.
func (e *WorkerDeadError) Error() string {
	return fmt.Sprintf("dist: worker %d is permanently dead at step %d and Config.Elastic is unset: cannot recover its shards (evict it by enabling elastic membership)", e.Worker, e.Step)
}

// LiveWorkers returns the current world size: the replicas currently in
// the collective. It equals Workers() until evictions shrink the fleet or
// pending joiners mean some replicas have not entered yet.
func (e *Engine) LiveWorkers() int { return e.world }

// Shards returns the current logical shard count. It equals Config.Shards
// until elastic evictions (joins) rebalance a world-tracking shard split
// down (up); pinned and codec-bearing splits never move.
func (e *Engine) Shards() int { return e.shards }

// ShardOwners returns the owner of every logical shard slot in the
// assignment the next step would use: shard s is computed by worker
// ShardOwners()[s]. Every shard always has exactly one live owner and the
// per-worker load stays within one shard of even — the conservation
// invariant the membership property tests pin across arbitrary evict/join
// sequences.
func (e *Engine) ShardOwners() []int {
	active := e.activeIDs(e.steps)
	owners := make([]int, e.shards)
	for s := range owners {
		owners[s] = active[s%len(active)]
	}
	return owners
}

// liveIDs returns the indices of the workers still in the collective.
func (e *Engine) liveIDs() []int {
	ids := make([]int, 0, len(e.replicas))
	for w, a := range e.alive {
		if a {
			ids = append(ids, w)
		}
	}
	return ids
}

// activeIDs returns the workers that can do work at the given step: live
// and not marked permanently dead by the fault plan. A dead-but-not-yet-
// evicted worker is excluded from dispatch — its shards are recomputed by
// the survivors, which is the failed-recovery path injectFaults accounts.
func (e *Engine) activeIDs(step int64) []int {
	ids := make([]int, 0, len(e.replicas))
	for w, a := range e.alive {
		if a && !e.cfg.Faults.deadAt(step, w) {
			ids = append(ids, w)
		}
	}
	return ids
}

// slotOwners assigns the logical shard slots round-robin over the active
// workers — shard s belongs to active[s mod len(active)] — keeping the
// per-worker load within one shard of even for any shard/worker ratio, at
// full strength and after evictions alike.
func (e *Engine) slotOwners(active []int) [][]int {
	slots := make([][]int, len(e.replicas))
	for s := 0; s < e.shards; s++ {
		w := active[s%len(active)]
		slots[w] = append(slots[w], s)
	}
	return slots
}

// reform rebuilds what a membership change moves from alive — at
// construction and at each epoch the step template opens or closes: the
// world size, each node's live members in ascending worker order (so a
// node's leader is its lowest live index), the live node sizes (a node that
// lost all its workers has left the inter tier), and a world-tracking shard
// split.
func (e *Engine) reform() {
	e.world = 0
	for n := range e.nodes {
		e.nodes[n] = e.nodes[n][:0]
	}
	for w, a := range e.alive {
		if a {
			e.world++
			e.nodes[w/e.topo.PerNode] = append(e.nodes[w/e.topo.PerNode], w)
		}
	}
	e.sizes = e.sizes[:0]
	for _, members := range e.nodes {
		if len(members) > 0 {
			e.sizes = append(e.sizes, len(members))
		}
	}
	if e.shardsTrack {
		e.shards = e.world
	}
}

// resync ends a membership epoch: the master rebroadcasts the weights at the
// new world size, accounted (exposed) like any other barrier traffic, and
// the bytes it moved are returned for the membership ledger.
func (e *Engine) resync() (moved int64, err error) {
	before := e.total.Comm.Bytes
	err = e.BroadcastWeights()
	return e.total.Comm.Bytes - before, err
}

// nodeRole locates live worker w in the degraded hierarchy: whether it
// leads its node (a node's leader is its first surviving member), the
// node's live size, and the count of non-empty nodes (the inter tier's
// world). It panics if w is not a live member of any node.
func (e *Engine) nodeRole(w int) (leader bool, nodeSize, liveNodes int) {
	for _, members := range e.nodes {
		if len(members) == 0 {
			continue
		}
		liveNodes++
		for i, m := range members {
			if m == w {
				leader = i == 0
				nodeSize = len(members)
			}
		}
	}
	if nodeSize == 0 {
		panic(fmt.Sprintf("dist: worker %d is not a live member of any node", w))
	}
	return leader, nodeSize, liveNodes
}

// checkDead enforces the no-forever-retry contract when elasticity is off:
// if the fault plan marks a live worker permanently dead at this step, the
// step surfaces a typed *WorkerDeadError instead of pretending the barrier
// could recover it.
func (e *Engine) checkDead(step int64) error {
	if e.cfg.Elastic != nil {
		return nil
	}
	for _, w := range e.liveIDs() {
		if e.cfg.Faults.deadAt(step, w) {
			return &WorkerDeadError{Worker: w, Step: step}
		}
	}
	return nil
}

// noteStep files the just-completed step under the world size it executed
// at.
func (e *Engine) noteStep() {
	at := make([]int64, e.world+1)
	at[e.world] = 1
	e.add(Report{Membership: MembershipStats{StepsAtWorld: at}})
}

// evictDead runs the eviction side of the membership state machine at the
// end of a step: every worker whose consecutive failed recoveries reached
// the policy threshold is removed from the collective (worker-index order,
// for determinism), the shard split and topology are rebuilt over the
// survivors — one membership epoch per step — and the master resynchronizes
// the fleet, the broadcast's payload also filed under RebalancedBytes. No-op
// unless Config.Elastic is set and a worker crossed the threshold.
func (e *Engine) evictDead() error {
	if e.cfg.Elastic == nil {
		return nil
	}
	threshold := e.cfg.Elastic.evictAfter()
	evicted := false
	for w := 1; w < len(e.replicas); w++ {
		if !e.alive[w] || e.consecDead[w] < threshold {
			continue
		}
		e.evict(w)
		evicted = true
	}
	if !evicted {
		return nil
	}
	e.reform()
	moved, err := e.resync()
	e.add(Report{Membership: MembershipStats{RebalancedBytes: moved}})
	return err
}

// evict removes worker w from the collective: it counts the shards w owned
// in the membership assignment (they must find new owners), releases w's
// goroutine and unhooks its gradient notifications. The caller's reform
// drops w from its hierarchy node — a node left empty disappears from the
// inter tier.
func (e *Engine) evict(w int) {
	members := e.liveIDs()
	var owned int64
	for s := 0; s < e.shards; s++ {
		if members[s%len(members)] == w {
			owned++
		}
	}
	e.alive[w] = false
	close(e.jobs[w])
	if e.cfg.Overlap {
		e.replicas[w].SetGradNotify(nil)
	}
	// The eviction takes effect for the next step — e.steps was already
	// advanced past the step whose failed recovery crossed the threshold.
	e.add(Report{Membership: MembershipStats{
		Evictions: 1, RebalancedShards: owned,
		Events: []MembershipEvent{{Step: e.steps, Worker: w, Join: false, World: len(members) - 1}},
	}})
}

// admitJoins runs the admission side of the membership state machine at a
// step boundary, before the step's batch is sharded: every worker the
// fault plan schedules to join at this step enters the collective
// (worker-index order, for determinism), the shard split and topology are
// rebuilt over the grown fleet — one membership epoch per step, mirroring
// evictDead — the shards that land on the joiners under the new assignment
// are counted, and the master warm-starts the fleet with a weight broadcast
// at the grown world size whose payload is also filed under JoinedBytes.
// No-op unless the plan names this step — or, at a local-SGD window start, a
// step the window skipped past: LocalStep checks boundaries only, so a join
// scheduled mid-window defers to the next boundary (sync boundaries are the
// only legal membership-change points). In the every-step modes the two
// conditions coincide, since admission runs each step.
func (e *Engine) admitJoins() error {
	f := e.cfg.Faults
	if f == nil || len(f.Join) == 0 {
		return nil
	}
	joined := make(map[int]bool)
	for w := 1; w < len(e.replicas); w++ {
		if s, ok := f.Join[w]; ok && s <= e.steps && !e.joinDone[w] {
			e.joinDone[w] = true
			e.admit(w)
			joined[w] = true
		}
	}
	if len(joined) == 0 {
		return nil
	}
	e.reform()
	var gained int64
	for _, owner := range e.ShardOwners() {
		if joined[owner] {
			gained++
		}
	}
	moved, err := e.resync()
	e.add(Report{Membership: MembershipStats{JoinedShards: gained, JoinedBytes: moved}})
	return err
}

// admit brings worker w into the collective at the current step boundary:
// a pending or evicted worker gets a fresh goroutine and its gradient-notify
// hook (when overlapping); the caller's reform gives it its hierarchy-node
// seat back, so node leadership deterministically restores to the lowest
// live index and a node returning from empty rejoins the inter tier. A
// still-live suspected worker whose outage just ended only needs its
// failure counter cleared (the caller's broadcast resyncs its weights).
// Either way the admission is counted and filed on the timeline.
func (e *Engine) admit(w int) {
	e.consecDead[w] = 0
	if !e.alive[w] {
		e.alive[w] = true
		e.startWorker(w)
		if e.cfg.Overlap {
			e.replicas[w].SetGradNotify(e.gradReady)
		}
	}
	e.add(Report{Membership: MembershipStats{
		Joins:  1,
		Events: []MembershipEvent{{Step: e.steps, Worker: w, Join: true, World: len(e.liveIDs())}},
	}})
}
