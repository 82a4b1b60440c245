package dist

// Local SGD (Config.SyncEvery): workers run H local optimizer steps
// between collectives, then average *weights* — Codreanu et al.'s periodic
// parameter averaging, trading a 1/H cut in communication volume for the
// statistical cost of divergence between averages. The hierarchical
// variant (Config.IntraSyncEvery) layers frequent cheap intra-node
// averages under the rare full rounds, the natural extension of Hierarchy.
//
// The engine contract carries over unchanged: every averaging round's
// schedule is accounted into CommStats/TierStats (exposed — sync rounds
// are barriers, nothing hides inside a backward pass), codecs round the
// weight payloads through their wire format exactly as they round
// gradients, measured counters match comm.ExpectedLocalSGDStats
// counter-for-counter, and runs are deterministic at any H. Sync
// boundaries are the only legal membership-change points: joins admit at
// window starts, fault rolls (and hence the eviction clock) fire in sync
// rounds, and a window always closes at the world size it opened at.

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/tensor"
)

// Stepper is an optimizer as the trainer drives it: one Step per gradient
// at the scheduled rate, advancing its parameters in place. opt.SGD and
// opt.LARS satisfy it structurally — dist never imports the optimizer
// package; core steps one over the master's parameters in synchronous mode
// and one per replica in local mode.
type Stepper interface {
	Step(lr float64)
}

// LocalSGDStats counts the local-SGD activity of an engine driven through
// LocalStep: local optimizer steps and the averaging rounds that
// synchronized them, per tier. The counters conserve steps exactly — for a
// fresh engine after S calls with period H,
//
//	LocalSteps = S
//	SyncRounds = floor(S/H)
//	IntraRounds = floor(S/Hi) − floor(S/H)   (Hi = IntraSyncEvery, else 0)
//
// so SyncRounds·H local steps are fully synchronized and S mod H ride in
// the still-open window.
type LocalSGDStats struct {
	// LocalSteps is the number of local optimizer steps executed (one per
	// LocalStep call; every active worker steps once per call).
	LocalSteps int64
	// SyncRounds is the number of full weight-averaging rounds: every
	// SyncEvery-th step all active workers average into the master, which
	// rebroadcasts the result.
	SyncRounds int64
	// IntraRounds is the number of intra-node-only averaging rounds:
	// every IntraSyncEvery-th step that is not also a full boundary, each
	// Topology node averages among its own members over the intra fabric.
	IntraRounds int64
}

// Add accumulates o into s.
func (s *LocalSGDStats) Add(o LocalSGDStats) {
	s.LocalSteps += o.LocalSteps
	s.SyncRounds += o.SyncRounds
	s.IntraRounds += o.IntraRounds
}

// SetLocalSteppers installs one local optimizer per replica — the workers
// step them inside LocalStep, each on its own replica's parameters, whose
// Param.G views the worker's local gradient while it steps. Must be called
// before the first LocalStep. Call it between steps only, like
// SetLossScale: the job channels provide the happens-before edge.
func (e *Engine) SetLocalSteppers(steppers []Stepper) {
	if len(steppers) != len(e.replicas) {
		panic(fmt.Sprintf("dist: %d local steppers for %d replicas (one per worker)", len(steppers), len(e.replicas)))
	}
	for w, s := range steppers {
		if s == nil {
			panic(fmt.Sprintf("dist: local stepper %d is nil", w))
		}
	}
	e.localSteppers = steppers
	if e.localGrads == nil {
		e.localGrads = make([][]float32, len(e.replicas))
		for w := range e.localGrads {
			e.localGrads[w] = make([]float32, e.nparams)
		}
	}
}

// LocalStep runs one local-SGD step: every active worker forward/backwards
// its shards of the global batch (exactly as ComputeGradient shards it),
// reduces the gradient over its own shards only, and steps its local
// optimizer at the given learning rate — no collective runs. At window
// boundaries the collectives fire: every SyncEvery-th step all active
// workers' weights are averaged (codec-rounded on the wire, uniformly
// weighted, canonical order) into the master and rebroadcast; every
// IntraSyncEvery-th step in between, each Topology node averages among its
// members on the intra fabric only. Fault rolls and membership changes
// happen at full boundaries exclusively — joins admit when a window opens,
// evictions close one — so a window always runs whole at one world size.
// It returns the batch-mean loss over all shards.
//
// With SyncEvery == 1 every step is a boundary: local SGD degenerates to
// per-step weight averaging, whose schedule (and therefore CommStats) is
// identical to the every-step gradient path's. SetLocalSteppers must have
// installed the local optimizers. An engine is driven through either
// LocalStep or ComputeGradient, never both: the two paths key codec slots
// differently (per worker here, per shard there).
func (e *Engine) LocalStep(x *tensor.Tensor, labels []int, lr float64) (float64, error) {
	h := int64(e.cfg.SyncEvery)
	if h < 1 {
		panic("dist: LocalStep needs Config.SyncEvery >= 1 (set the synchronization period)")
	}
	if e.localSteppers == nil {
		panic("dist: LocalStep before SetLocalSteppers (the workers have no local optimizers)")
	}
	// Sync boundaries are the only legal membership-change points: a join
	// the plan scheduled for a step inside the previous window was deferred
	// to the window start, and only the step that closes a window evicts.
	done := e.steps + 1
	opens, closes := e.steps%h == 0, done%h == 0
	return e.step("LocalStep", x, labels, opens, closes, func(j job, active []int) error {
		j.kind, j.lr = jobLocal, lr
		if err := e.dispatch(active, j); err != nil {
			return err
		}
		e.add(Report{LocalSGD: LocalSGDStats{LocalSteps: 1}})
		if closes {
			e.syncRound(active)
		} else if hi := int64(e.cfg.IntraSyncEvery); hi > 0 && done%hi == 0 {
			e.intraSyncRound(active)
		}
		return nil
	})
}

// localReduceStep is the worker-side tail of a jobLocal: reduce the
// gradients of the worker's own shards — sample-weighted over the rows it
// computed, canonical slot order — into its local gradient vector, point its
// replica's parameter gradients at it, then step its local optimizer. Runs
// on the worker goroutine; it touches only worker-owned state (its shards'
// gradients, its local gradient, its replica, its stepper).
func (e *Engine) localReduceStep(w int, j job) {
	var owned int
	var srcs [][]float32
	var weights []float64
	for slot, o := range j.owners {
		if n := j.spans[slot][1] - j.spans[slot][0]; o == w && n > 0 {
			owned += n
			srcs = append(srcs, e.grads[slot])
			weights = append(weights, float64(n))
		}
	}
	if owned == 0 {
		return // no rows landed on this worker this step: nothing to step on
	}
	for i := range weights {
		weights[i] /= float64(owned)
	}
	e.accumulate(e.localGrads[w], srcs, weights)
	view(e.localGrads[w], e.params[w], gradOf)
	e.localSteppers[w].Step(j.lr)
}

// uniform returns the n weights of a uniform mean.
func uniform(n int) []float64 {
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1 / float64(n)
	}
	return weights
}

// syncRound runs one full weight-averaging round over the active workers:
// reduce their flat weights bucket by bucket exactly like a gradient
// reduction (codec-rounded on the wire, the reduce schedule accounted) but
// uniformly weighted in canonical worker order into the master, roll the
// fault plan — the only point the eviction clock ticks in local mode — and
// rebroadcast. The codec rounds the weights in place; the average and the
// broadcast overwrite every one it rounds. All of it is exposed: a sync
// round is a barrier, there is no backward pass to hide inside.
func (e *Engine) syncRound(active []int) {
	d := Report{LocalSGD: LocalSGDStats{SyncRounds: 1}}
	weights := uniform(len(active))
	payloads := make([]int64, len(e.buckets))
	for bi := range e.buckets {
		payloads[bi] = e.reduceBucket(&d, bi, active, e.weights, weights, false)
	}
	copy(e.weights[0], e.reduced)
	e.injectFaults(&d, payloads)
	e.add(d)
	e.broadcast()
}

// intraSyncRound runs one intra-node-only averaging round: each Topology
// node's active members average their weights among themselves over the
// intra fabric — leaders never exchange, so the inter tier stays silent.
// The schedule is the intra half of the two-tier round (reduce plus
// broadcast, priced at the live node sizes like every hierarchical
// schedule), accounted exposed on the intra tier only. The node averages
// overwrite every weight vector the codec rounded in place.
func (e *Engine) intraSyncRound(active []int) {
	d := Report{LocalSGD: LocalSGDStats{IntraRounds: 1}}
	activeSet := make(map[int]bool, len(active))
	for _, w := range active {
		activeSet[w] = true
	}
	for bi, b := range e.buckets {
		t := TierStats{Intra: e.reduceTiers(e.transform(bi, active, e.weights), len(active)).Intra}
		t.Intra.Add(HierBroadcastSchedule(e.topo, e.roster.sizes, 4*int64(b[1]-b[0])).Intra)
		d.file(t, false)
	}
	sp := kernel.StartPhase(kernel.PhaseReduce)
	for _, members := range e.roster.nodes {
		var srcs [][]float32
		for _, m := range members {
			if activeSet[m] {
				srcs = append(srcs, e.weights[m])
			}
		}
		if len(srcs) == 0 {
			continue
		}
		e.accumulate(e.reduced, srcs, uniform(len(srcs)))
		for _, m := range members {
			if activeSet[m] {
				copy(e.weights[m], e.reduced)
			}
		}
	}
	sp.End()
	e.add(d)
}
