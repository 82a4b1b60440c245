package dist

import (
	"fmt"
	"strconv"
	"strings"
)

// FaultPlan injects deterministic communication faults into the engine's
// reduction rounds, for scenario diversity: the same plan over the same run
// always drops and stalls the same (step, worker) pairs, so faulty runs are
// exactly reproducible — and, because the synchronous engine re-requests
// dropped payloads and waits out stragglers, they recover to the bitwise
// result of a fault-free run (tested).
//
// Two fault classes are distinguished. Rate faults (DropRate, StallRate)
// are transient: the worker is alive, the resend succeeds, and the step
// completes with the recovery traffic accounted. Permanent deaths (Dead)
// never recover: every recovery attempt fails, and the engine either evicts
// the worker under Config.Elastic or surfaces a typed *WorkerDeadError —
// it must not retry forever.
type FaultPlan struct {
	// Seed keys the fault schedule. Two engines with equal plans inject
	// identical faults.
	Seed uint64
	// DropRate is the per-(step, worker) probability in [0,1] that the
	// worker's reduction payload is lost in transit and must be resent
	// (CommStats.Retries, plus the resent messages and bytes).
	DropRate float64
	// StallRate is the per-(step, worker) probability in [0,1] that the
	// worker straggles, holding the lockstep barrier for one round
	// (CommStats.Stalls).
	StallRate float64
	// Dead marks workers as permanently unreachable: Dead[w] = s means
	// worker w answers nothing from step s on — the preemptible-node
	// scenario. Unlike a rate drop, a dead worker's recovery never
	// succeeds: a survivor recomputes its shards (accounted as a retry
	// plus the resend traffic) and the failed recovery counts toward
	// Elastic.EvictAfter. Worker 0 (the master) cannot be marked dead;
	// NewEngine rejects such plans. An entry in Join later than Dead[w]
	// bounds the outage: the worker answers again from the join step on.
	Dead map[int]int64
	// Join schedules workers to enter the collective: Join[w] = s admits
	// worker w at the step-s boundary, before step s computes — the
	// scale-up half of the preemptible-fleet scenario. Two shapes are
	// distinguished by Dead: a worker with no Dead entry (or one at or
	// after its join) is a fresh replica that sits out steps [0, s) and
	// joins cold; a worker with Dead[w] < Join[w] is an initial member
	// whose outage ends — it returns at step s, rejoining its hierarchy
	// node (leadership restores to the lowest live index) whether or not
	// the outage already got it evicted. Either way the engine warm-starts
	// it with an accounted weight broadcast at the new world size, so
	// every post-join step is bit-identical to a fresh run at the grown
	// world started from the broadcast weights. Joins are membership
	// surgery, not faults: they require Config.Elastic, and Join[w] must
	// be at least 1 (a join at step 0 is just initial membership). Worker
	// 0 (the master) is always an initial member; NewEngine rejects plans
	// that mark it.
	Join map[int]int64
}

// ParseWorkerSteps parses the flag syntax of Dead and Join: comma-separated
// "worker@step" pairs of unsigned decimal integers ("3@40,2@60", spaces
// around a pair tolerated). The empty string is the nil plan. A malformed
// pair, trailing text, a sign, or a worker listed twice is an error — which
// workers a plan may name is Config.Validate's business.
func ParseWorkerSteps(s string) (map[int]int64, error) {
	if s == "" {
		return nil, nil
	}
	plan := make(map[int]int64)
	for _, pair := range strings.Split(s, ",") {
		ws, ss, _ := strings.Cut(strings.TrimSpace(pair), "@")
		w, werr := strconv.ParseUint(ws, 10, 31)
		step, serr := strconv.ParseUint(ss, 10, 63)
		if werr != nil || serr != nil {
			return nil, fmt.Errorf("dist: bad entry %q: want \"worker@step\", two unsigned integers", pair)
		}
		if _, dup := plan[int(w)]; dup {
			return nil, fmt.Errorf("dist: worker %d listed twice", w)
		}
		plan[int(w)] = int64(step)
	}
	return plan, nil
}

// enabled reports whether the plan can ever fire.
func (f *FaultPlan) enabled() bool {
	return f != nil && (f.DropRate > 0 || f.StallRate > 0 || len(f.Dead) > 0)
}

// deadAt reports whether the plan marks worker w unreachable at the given
// step. A Join entry later than the death bounds the outage to the window
// [Dead[w], Join[w]) — the preemptible node that comes back.
func (f *FaultPlan) deadAt(step int64, w int) bool {
	if f == nil || len(f.Dead) == 0 {
		return false
	}
	s, ok := f.Dead[w]
	if !ok || step < s {
		return false
	}
	if j, ok := f.Join[w]; ok && j > s && step >= j {
		return false
	}
	return true
}

// roll returns the two fault decisions for a worker at a step. Worker 0 is
// the root/coordinator and never drops its own payload (a parameter server
// does not lose messages to itself), though it can straggle.
func (f *FaultPlan) roll(step int64, worker int) (drop, stall bool) {
	if !f.enabled() {
		return false, false
	}
	h := splitmix(f.Seed ^ uint64(step)*0x9e3779b97f4a7c15 ^ uint64(worker)*0xbf58476d1ce4e5b9)
	const scale = 1.0 / (1 << 53)
	u1 := float64(h>>11) * scale
	u2 := float64(splitmix(h)>>11) * scale
	drop = worker != 0 && u1 < f.DropRate
	stall = u2 < f.StallRate
	return drop, stall
}

// splitmix is the SplitMix64 finalizer — a cheap, well-mixed hash that
// keeps the fault schedule independent across steps and workers.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
