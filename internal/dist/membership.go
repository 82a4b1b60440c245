package dist

import (
	"fmt"
	"slices"
	"strings"
)

// DefaultEvictAfter is the eviction threshold used when Elastic.EvictAfter
// is zero: a worker is declared dead after this many consecutive failed
// recoveries.
const DefaultEvictAfter = 3

// Elastic is the engine's elastic-membership policy. Without it the engine
// recovers every fault in place and a permanently dead worker surfaces a
// *WorkerDeadError; with it the engine runs a small membership state machine
// per worker:
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
// The whole machine is one value, the engine's roster, whose transitions are
// pure functions of (roster, FaultPlan, step, EvictAfter): admit at a step's
// opening boundary, then strike (count each live worker's consecutive failed
// recoveries) and evict at its closing one. Each returns the next roster plus
// the MembershipEvents and shard counts to file; the engine applies the
// effects. Shard s is owned by members[s mod len(members)], where members
// are the live workers minus those the plan holds dead at the step — one
// rule for the step's shard plan, ShardOwners, RebalancedShards (counted
// over the live list before a step's evictions) and JoinedShards (over the
// assignment after its admissions). Event worlds are sequential: each event
// carries the world size after that one change.
//
// Eviction removes the worker from the collective at the end of the step
// that crossed the threshold:
//
//   - the worker's goroutine is released; its gradient-notify hook (the
//     overlap scheduler's input, installed once by NewEngine) stays, since a
//     replica without a goroutine never runs Backward — the scheduler's
//     bucket countdowns are arithmetic over the parameter offsets and start
//     each step at the live shard count;
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
//   - the worker's goroutine starts (or restarts, for an evicted returner);
//     its hook never left, and the overlap scheduler's per-step countdowns
//     start at the grown live shard count;
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
	// the shards it owned in the assignment over the live workers before
	// the step's evictions.
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
	parts := make([]string, len(m.Events))
	for i, ev := range m.Events {
		parts[i] = ev.String()
	}
	return strings.Join(parts, " ")
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
	var parts []string
	for p := len(m.StepsAtWorld) - 1; p >= 0; p-- {
		if m.StepsAtWorld[p] != 0 {
			parts = append(parts, fmt.Sprintf("%dx%d", p, m.StepsAtWorld[p]))
		}
	}
	if parts == nil {
		return "-"
	}
	return strings.Join(parts, " ")
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

// roster is the engine's membership as one value: who is in the collective,
// each worker's consecutive failed recoveries, which scheduled joins are still
// to come, the logical shard count, and the hierarchy seats the live workers
// hold. Its transitions — admit, strike and evict — are pure functions of
// (roster, FaultPlan, step, EvictAfter): each returns the next roster, never
// writing the slices of the one it was given, plus the events and the shard
// count to file. The Engine only applies their effects.
type roster struct {
	live    []int   // the workers in the collective, ascending
	strikes []int   // per worker: consecutive failed recoveries toward eviction
	pending int64   // joins scheduled at this step or later are still to admit
	shards  int     // the logical shard count
	track   bool    // shards follows len(live): the default split, no codec
	perNode int     // the hierarchy's workers per node
	nodes   [][]int // each node's live members, ascending: its leader first
	sizes   []int   // the live size of every non-empty node
}

// newRoster is the membership a run starting at step start opens with: every
// worker but the fresh joiners whose FaultPlan.Join step is still to come —
// at start or later, since a join at start fires at that step's opening
// boundary. A worker with Dead[w] < Join[w] is an initial member whose outage
// ends at the join. A resumed run's earlier joins are in effect; its strikes
// begin at zero.
func newRoster(workers int, h Hierarchy, shards int, track bool, f *FaultPlan, start int64) roster {
	var join, dead map[int]int64
	if f != nil {
		join, dead = f.Join, f.Dead
	}
	var live []int
	for w := range workers {
		j, joins := join[w]
		d, died := dead[w]
		if !joins || j < start || died && d < j {
			live = append(live, w)
		}
	}
	r := roster{strikes: make([]int, workers), pending: start, shards: shards, track: track, perNode: h.PerNode, nodes: make([][]int, h.Nodes)}
	return r.with(live)
}

// with returns r over the given live list, re-deriving the node seats (a
// node's leader is its lowest live index), the live node sizes (a node that
// lost all its workers has left the inter tier) and a world-tracking shard
// count from it.
func (r roster) with(live []int) roster {
	r.live, r.sizes = live, nil
	r.nodes = make([][]int, len(r.nodes))
	for _, w := range live {
		r.nodes[w/r.perNode] = append(r.nodes[w/r.perNode], w)
	}
	for _, members := range r.nodes {
		if len(members) > 0 {
			r.sizes = append(r.sizes, len(members))
		}
	}
	if r.track {
		r.shards = len(live)
	}
	return r
}

// members returns the workers that can work at step: the live ones, minus any
// the plan holds dead — a survivor recomputes their shards, the failed
// recovery injectFaults accounts. Without a Dead plan it is the live list
// itself.
func (r roster) members(f *FaultPlan, step int64) []int {
	if f == nil || len(f.Dead) == 0 {
		return r.live
	}
	return slices.DeleteFunc(slices.Clone(r.live), func(w int) bool { return f.deadAt(step, w) })
}

// seat locates live worker w in the possibly degraded hierarchy: whether it
// leads its node, the node's live size, and the inter tier's world.
func (r roster) seat(w int) (leader bool, nodeSize, liveNodes int) {
	members := r.nodes[w/r.perNode]
	return members[0] == w, len(members), len(r.sizes)
}

// owners is the one ownership rule: slot s of n belongs to
// members[s mod len(members)], which keeps every member's load within one
// slot of even for any slot/member ratio, at full strength and degraded alike.
func owners(members []int, n int) []int {
	out := make([]int, n)
	for s := range out {
		out[s] = members[s%len(members)]
	}
	return out
}

// admit is the opening boundary of step: every worker the plan schedules to
// join at a step no earlier admission has reached — in [r.pending, step], so
// a join inside a local-SGD window waits for the window start — enters, in
// worker order. A suspected worker whose outage ended is still live and keeps
// its seat; its event alone resyncs it. Strikes are left to the step's
// closing strike, which clears every joiner's (none is dead at its join). It
// also returns the shards the joiners own in the assignment the step runs.
func (r roster) admit(f *FaultPlan, step int64) (roster, []MembershipEvent, int64) {
	if f == nil || len(f.Join) == 0 {
		return r, nil, 0
	}
	from := r.pending
	r.pending = step + 1
	due := func(w int) bool {
		s, ok := f.Join[w]
		return ok && from <= s && s <= step
	}
	live := r.live
	var events []MembershipEvent
	for w := range len(r.strikes) {
		if !due(w) {
			continue
		}
		if !slices.Contains(live, w) {
			live = append(slices.Clip(live), w)
			slices.Sort(live)
		}
		events = append(events, MembershipEvent{Step: step, Worker: w, Join: true, World: len(live)})
	}
	if events == nil {
		return r, nil, 0
	}
	r = r.with(live)
	var gained int64
	for _, o := range owners(r.members(f, step), r.shards) {
		if due(o) {
			gained++
		}
	}
	return r, events, gained
}

// strike is the recovery outcome of closing step: each live worker the plan
// holds dead at step has failed one more recovery in a row, and every other
// live worker's count clears. Without a Dead plan every count stays zero.
func (r roster) strike(f *FaultPlan, step int64) roster {
	if f == nil || len(f.Dead) == 0 {
		return r
	}
	r.strikes = slices.Clone(r.strikes)
	for _, w := range r.live {
		if f.deadAt(step, w) {
			r.strikes[w]++
		} else {
			r.strikes[w] = 0
		}
	}
	return r
}

// evict is the closing boundary before step: every live worker but the master
// whose strikes reached after leaves, in worker order, and step is the first
// step without it. Event worlds are sequential. Each evictee's shards — those
// it owned in the assignment over the live list before any of these
// evictions — must find new owners.
func (r roster) evict(after int, step int64) (roster, []MembershipEvent, int64) {
	struck := func(w int) bool { return w != 0 && r.strikes[w] >= after }
	world := len(r.live)
	var events []MembershipEvent
	for _, w := range r.live {
		if struck(w) {
			world--
			events = append(events, MembershipEvent{Step: step, Worker: w, World: world})
		}
	}
	if events == nil {
		return r, nil, 0
	}
	var moved int64
	for _, o := range owners(r.live, r.shards) {
		if struck(o) {
			moved++
		}
	}
	return r.with(slices.DeleteFunc(slices.Clone(r.live), struck)), events, moved
}

// LiveWorkers returns the current world size: the replicas currently in
// the collective. It equals Workers() until evictions shrink the fleet or
// pending joiners mean some replicas have not entered yet.
func (e *Engine) LiveWorkers() int { return len(e.roster.live) }

// Shards returns the current logical shard count. It equals Config.Shards
// until elastic evictions (joins) rebalance a world-tracking shard split
// down (up); pinned and codec-bearing splits never move.
func (e *Engine) Shards() int { return e.roster.shards }

// ShardOwners returns the owner of every logical shard slot in the
// assignment the next step would use: shard s is computed by worker
// ShardOwners()[s]. Every shard always has exactly one live owner and the
// per-worker load stays within one shard of even — the conservation
// invariant the membership property tests pin across arbitrary evict/join
// sequences.
func (e *Engine) ShardOwners() []int { return owners(e.members(), e.roster.shards) }

// members returns the workers that can work at the current step.
func (e *Engine) members() []int { return e.roster.members(e.cfg.Faults, e.steps) }

// checkDead enforces the no-forever-retry contract when elasticity is off:
// if the fault plan marks a live worker permanently dead at this step, the
// step surfaces a typed *WorkerDeadError instead of pretending the barrier
// could recover it.
func (e *Engine) checkDead(step int64) error {
	if e.cfg.Elastic != nil {
		return nil
	}
	for _, w := range e.roster.live {
		if e.cfg.Faults.deadAt(step, w) {
			return &WorkerDeadError{Worker: w, Step: step}
		}
	}
	return nil
}

// noteStep files the just-completed step under the world size it executed
// at.
func (e *Engine) noteStep() {
	world := len(e.roster.live)
	at := make([]int64, world+1)
	at[world] = 1
	e.add(Report{Membership: MembershipStats{StepsAtWorld: at}})
}

// apply makes next the membership and carries out a transition's effects:
// an evictee's goroutine is released; a joiner without a goroutine (pending,
// or evicted earlier) gets a fresh one. Gradient-notify hooks stay as they
// are — a worker without a goroutine never runs Backward. Then the counts are
// filed and the master resynchronizes the fleet once at the new world size:
// the broadcast is accounted (exposed) into the step's CommStats and its
// payload filed under JoinedBytes or RebalancedBytes. In synchronous mode
// every replica already views the master's weights, so that accounting is
// the whole resync. A transition's events are all admissions or all
// evictions.
func (e *Engine) apply(next roster, events []MembershipEvent, shards int64) {
	e.roster = next
	if len(events) == 0 {
		return
	}
	m := MembershipStats{Events: events}
	for _, ev := range events {
		switch w := ev.Worker; {
		case !ev.Join:
			m.Evictions++
			close(e.jobs[w])
			e.jobs[w] = nil
		case e.jobs[w] == nil:
			m.Joins++
			e.startWorker(w)
		default:
			m.Joins++
		}
	}
	before := e.total.Comm.Bytes
	e.broadcast()
	moved := e.total.Comm.Bytes - before
	if m.Joins > 0 {
		m.JoinedShards, m.JoinedBytes = shards, moved
	} else {
		m.RebalancedShards, m.RebalancedBytes = shards, moved
	}
	e.add(Report{Membership: m})
}
