package dist

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/data"
	"repro/internal/kernel"
	"repro/internal/nn"
	"repro/internal/par"
	"repro/internal/tensor"
)

// Config configures an Engine.
type Config struct {
	// Algo selects the allreduce pattern of a flat, single-fabric world
	// (default Central, the zero value; Ring is what the paper's large
	// systems use). A flat world is the P×1 hierarchy — every worker alone
	// on its node, Algo across the node leaders — and that is how the
	// engine runs it. Ignored when Topology is set.
	Algo Algorithm
	// Topology optionally arranges the workers into a two-tier node
	// hierarchy: reductions then run intra-node first, feeding a
	// cross-node exchange among node leaders, and the schedule is
	// reported per fabric tier (Report.TierComm) as well as in the
	// aggregate counters. Topology.Workers() must equal the replica
	// count. nil means the P×1 hierarchy built from Algo, whose tier split
	// stays unreported. Values are unaffected either way — hierarchical
	// runs are bit-identical to flat ones with the same shard split.
	Topology *Hierarchy
	// Shards is the number of logical gradient shards each global batch
	// is split into; 0 means one per worker. The shard split — not the
	// worker count — determines the numerical result: two engines with
	// equal Shards produce bit-identical gradients for any worker counts.
	Shards int
	// BucketElems chunks the flat gradient into reduction buckets of at
	// most this many float32 coordinates, each reduced as its own
	// collective (the overlap-friendly granularity real frameworks use;
	// more, smaller messages). 0 reduces the whole gradient as one
	// bucket.
	BucketElems int
	// MicroBatch runs every shard as chunks of at most this many rows,
	// accumulated into the shard's one gradient before the step's one
	// reduction — the per-device micro-batch the cluster twin prices. The
	// chunks depend only on the shard's span, so the shard-split contract
	// holds. 0, or a value no smaller than a shard, runs it whole.
	MicroBatch int
	// Overlap fires each bucket's reduction as soon as the gradients it
	// covers are final on every shard — while later layers are still
	// back-propagating — instead of reducing everything after the full
	// backward pass. A per-parameter gradient-ready notification from
	// nn.Network.Backward drives an overlap scheduler that launches a
	// bucket's allreduce the moment its last covering parameter lands.
	// Values stay canonical and bit-identical to the non-overlapped path
	// (same backward, arithmetic and codec state); what changes is
	// when the collectives run and how they are accounted: OverlapStats
	// splits every step's rounds and bytes into hidden (reduced inside
	// the backward) versus exposed (the bucket covering the first
	// parameter, weight broadcasts, recovery traffic). Pair with
	// BucketElems — with a single bucket nothing can hide. The first
	// Engine.LocalStep turns the hooks off: nothing hides in local SGD.
	Overlap bool
	// Reduction selects the arithmetic of the gradient reduction:
	// CanonicalF64 (the default — strict left-to-right float64
	// accumulation in canonical shard order, and the faster kernel as
	// measured) or PairwiseF32 (the fixed-tree float32 kernel; still
	// bit-identical across worker counts, topologies, shard-to-worker
	// assignments and overlap, because the tree shape depends only on the
	// live shard count). Changing the policy changes the reduced values
	// slightly (different rounding), so pin it across runs being compared.
	Reduction Reduction
	// Codec optionally compresses every reduction payload on the wire
	// (lossy; see FP16Codec and OneBitCodec). nil exchanges raw float32.
	Codec Codec
	// Profile enables the per-step phase profiler: hot-loop wall time is
	// attributed to gemm/im2col/reduce/codec phases (internal/kernel's
	// global profiler) and surfaced as ProfileStats whose five buckets
	// sum exactly to the measured step wall time. The profiler is
	// process-global — profile one engine at a time.
	Profile bool
	// StartStep sets the engine's initial step counter — the cursor that
	// keys the deterministic fault schedule (FaultPlan rolls are a pure
	// function of the absolute step) and the membership timeline. Resuming
	// a checkpointed run with StartStep = Checkpoint.Step makes the
	// remaining steps' fault rolls, recovery traffic and (with restored
	// codec residuals) reduced values bit-identical to the uninterrupted
	// run. 0 starts fresh.
	StartStep int64
	// Faults optionally injects deterministic drops and stalls into the
	// reduction schedule. Recovery is exact: values are unaffected. A
	// worker the plan marks permanently Dead never recovers — pair with
	// Elastic, or the step loop surfaces a *WorkerDeadError. The plan's
	// Join map schedules workers to enter the collective mid-run (it too
	// requires Elastic).
	Faults *FaultPlan
	// SyncEvery is the local-SGD synchronization period H: workers run H
	// local optimizer steps between collectives, then average *weights*
	// (parameters, not gradients) — Codreanu et al.'s periodic averaging,
	// cutting comm volume by 1/H. 0 and 1 both mean the standard
	// every-step path: the engine is bit-identical to one whose config
	// never mentioned SyncEvery. H > 1 runs are driven through
	// Engine.LocalStep (after SetLocalSteppers) instead of the
	// ComputeGradient/optimizer/BroadcastWeights loop; sync boundaries —
	// every H-th step — are the only points where collectives run and the
	// only legal membership-change points (joins admit at window starts,
	// evictions close windows; the fault-plan eviction clock ticks in sync
	// rounds, since a dead worker is only *observed* at a barrier).
	SyncEvery int
	// IntraSyncEvery layers hierarchical periodic averaging onto local
	// SGD: every IntraSyncEvery steps the members of each Topology node
	// average their weights over the cheap intra-node fabric, while the
	// full two-tier average still runs only every SyncEvery steps —
	// frequent local averaging, rare global averaging. Requires Topology
	// and SyncEvery > 1, and must divide SyncEvery so the tiers nest.
	// Intra-only rounds are accounted exclusively on the intra tier of
	// TierStats. 0 disables the intermediate tier; IntraSyncEvery ==
	// SyncEvery is allowed and degenerates to plain local SGD (every
	// intra boundary is already a full boundary).
	IntraSyncEvery int
	// Elastic enables elastic membership: a worker whose recovery fails
	// Elastic.EvictAfter consecutive steps is evicted from the collective,
	// its shards rebalance over the surviving P−1 workers, the topology
	// shrinks, and training continues in lockstep at the smaller world
	// size; a worker the fault plan schedules to Join enters at its step
	// boundary the same way in reverse — warm-started by an accounted
	// weight broadcast at the grown world (see the Elastic type for the
	// full state machine and the determinism contract). nil keeps the
	// fixed-membership behavior.
	Elastic *Elastic
}

// Validate reports why the configuration cannot drive an engine over the
// given number of replicas, or nil. NewEngine panics with this error;
// callers that take configurations from outside the program
// (core.Config.Validate) check first.
func (c Config) Validate(workers int) error {
	if workers < 1 {
		return errors.New("dist: NewEngine needs at least one replica")
	}
	if c.Shards != 0 && c.Shards < workers {
		return fmt.Errorf("dist: %d shards cannot feed %d workers", c.Shards, workers)
	}
	if h := c.Topology; h != nil {
		if err := h.validate(); err != nil {
			return err
		}
		if h.Workers() != workers {
			return fmt.Errorf("dist: %v hierarchy needs %d workers, engine has %d replicas", *h, h.Workers(), workers)
		}
	}
	if c.BucketElems < 0 {
		return fmt.Errorf("dist: Config.BucketElems = %d: a bucket size cannot be negative", c.BucketElems)
	}
	if c.MicroBatch < 0 {
		return fmt.Errorf("dist: Config.MicroBatch = %d: a chunk size cannot be negative", c.MicroBatch)
	}
	if c.SyncEvery < 0 {
		return fmt.Errorf("dist: Config.SyncEvery = %d: the synchronization period cannot be negative", c.SyncEvery)
	}
	if c.IntraSyncEvery < 0 {
		return fmt.Errorf("dist: Config.IntraSyncEvery = %d: the intra-node period cannot be negative", c.IntraSyncEvery)
	}
	if c.IntraSyncEvery > 0 {
		if c.Topology == nil {
			return errors.New("dist: Config.IntraSyncEvery needs Config.Topology (intra-node averaging needs nodes)")
		}
		if c.SyncEvery <= 1 {
			return errors.New("dist: Config.IntraSyncEvery needs Config.SyncEvery > 1 (every step already fully synchronizes)")
		}
		if c.SyncEvery%c.IntraSyncEvery != 0 {
			return fmt.Errorf("dist: Config.IntraSyncEvery = %d must divide Config.SyncEvery = %d so the averaging tiers nest", c.IntraSyncEvery, c.SyncEvery)
		}
	}
	f := c.Faults
	if f == nil {
		return nil
	}
	if !(f.DropRate >= 0 && f.DropRate <= 1) {
		return fmt.Errorf("dist: FaultPlan.DropRate = %v: a probability must lie in [0, 1]", f.DropRate)
	}
	if !(f.StallRate >= 0 && f.StallRate <= 1) {
		return fmt.Errorf("dist: FaultPlan.StallRate = %v: a probability must lie in [0, 1]", f.StallRate)
	}
	for w := range f.Dead {
		if w == 0 {
			return errors.New("dist: FaultPlan.Dead cannot mark worker 0 (the master) dead")
		}
		if w < 0 || w >= workers {
			return fmt.Errorf("dist: FaultPlan.Dead marks worker %d, engine has %d replicas", w, workers)
		}
	}
	if len(f.Join) > 0 && c.Elastic == nil {
		return errors.New("dist: FaultPlan.Join requires Config.Elastic (joins are membership surgery)")
	}
	for w, s := range f.Join {
		if w == 0 {
			return errors.New("dist: FaultPlan.Join cannot mark worker 0 (the master joins at construction)")
		}
		if w < 0 || w >= workers {
			return fmt.Errorf("dist: FaultPlan.Join marks worker %d, engine has %d replicas", w, workers)
		}
		if s < 1 {
			return fmt.Errorf("dist: FaultPlan.Join[%d] = %d: a join before step 1 is initial membership", w, s)
		}
		if d, ok := f.Dead[w]; ok && d == s {
			return fmt.Errorf("dist: FaultPlan marks worker %d both dead and joining at step %d", w, s)
		}
	}
	return nil
}

// Engine drives synchronous data-parallel SGD over W model replicas using W
// persistent worker goroutines in lockstep. Per training step the caller
// runs ComputeGradient (shard forward/backward + gradient allreduce into
// the master replica), steps the optimizer on the master's parameters, and
// calls BroadcastWeights, which accounts the weight broadcast — the exact
// two-phase structure the paper's cost model prices. (Under
// Config.SyncEvery the caller runs LocalStep instead; both entry points are
// bodies of one step template.)
//
// Parameters live in the engine's flat vectors: every replica's Param.W
// tensors view the master's weight vector (its own copy only in local-SGD
// mode), a shard's backward writes straight into its flat gradient, and the
// master's Param.G views the reduced vector. The *tensor.Tensor values never
// change, so parameter lists taken before the first step stay valid; the
// views outlive Close.
//
// The reduce stage is one loop over ready buckets: under Config.Overlap the
// gradient-notify hooks NewEngine installs on every replica (and the first
// LocalStep or Close removes) count each bucket's coordinates down inside the
// backward pass; otherwise every bucket is ready after the barrier.
//
// Membership is one value, the roster (see Elastic): the step template asks
// its pure transitions what changes at each boundary, and the engine only
// applies the effects — starting or closing a worker goroutine, the one
// resync broadcast, and the ledger.
//
// The engine is not safe for concurrent use; like the replicas it owns, it
// belongs to one training loop. Close releases the worker goroutines.
type Engine struct {
	cfg      Config
	replicas []*nn.Network
	params   [][]*nn.Param // per-replica parameter lists
	nparams  int           // total float32 coordinates per replica
	offsets  []int         // parameter i spans flat coordinates [offsets[i], offsets[i+1])
	buckets  [][2]int      // bucket coordinate ranges

	// The membership (see Elastic) is one value: the live workers, their
	// strikes, the pending joins, the shard count and the live node sizes
	// every schedule is priced at. Its transitions decide; the engine applies
	// their effects. A worker is live exactly when it has a job channel.
	roster roster

	// The one topology every schedule is priced on: Config.Topology, or the
	// P×1 hierarchy a flat Config.Algo resolves to.
	topo Hierarchy

	// The reduce stage of ComputeGradient drains readyCh, which under
	// Config.Overlap gradReady feeds from inside the backward pass as each
	// bucket's countdown of outstanding gradient coordinates reaches zero.
	remaining []atomic.Int64
	readyCh   chan int

	jobs []chan job
	done chan error
	wg   sync.WaitGroup

	weights [][]float32 // per replica: the flat weights its Param.W tensors view (the master's until the first LocalStep)
	grads   [][]float32 // per logical shard: the flat gradient its backward writes
	losses  []float64   // per logical shard: mean loss over the shard
	evalOK  []int       // per worker: correct predictions of the last eval

	// Local-SGD machinery (see Config.SyncEvery). localSteppers holds one
	// optimizer per replica, stepped by the worker goroutines inside
	// jobLocal; localGrads holds each worker's gradient reduced over its
	// own shards, which its Param.G tensors view while it steps. The first
	// LocalStep allocates it: non-nil means local-SGD mode.
	localSteppers []Stepper
	localGrads    [][]float32

	reduced   []float32 // scratch: canonically reduced flat gradient
	steps     int64
	total     Report  // the whole run's ledger
	last      Report  // the most recent training step's (see add)
	lossScale float32 // multiplier applied to dL/dy before Backward (0 or 1: off)
	closed    bool
}

// SetLossScale sets the factor every worker multiplies the loss gradient by
// before back-propagating — the producer half of mixed-precision loss
// scaling (the consumer, opt.LossScaler.Update, unscales the reduced
// float32 gradients or skips the step on overflow). 0 and 1 both mean
// unscaled. Call it between steps only: the worker goroutines read it while
// a gradient job is in flight, and the job channels provide the
// happens-before edge for a write made before dispatch.
func (e *Engine) SetLossScale(s float32) { e.lossScale = s }

type jobKind int

const (
	jobGrad jobKind = iota
	jobEval
	jobLocal
)

// job is one lockstep command to a worker.
type job struct {
	kind   jobKind
	x      *tensor.Tensor
	labels []int
	spans  [][2]int // row spans, indexed by slot
	owners []int    // the worker computing each span
	lr     float64  // learning rate of a local optimizer step (jobLocal)
}

// NewEngine builds an engine over the given replicas (one per worker, at
// least one) and re-homes their parameters into its flat vectors; every
// replica's Param.W views one copy of the master's (replicas[0]) weights. It
// panics with Config.Validate's error, or if a replica's parameters differ
// from the master's in count or size.
func NewEngine(cfg Config, replicas []*nn.Network) *Engine {
	if err := cfg.Validate(len(replicas)); err != nil {
		panic(err)
	}
	// Only the default per-worker shard split follows the world size down
	// on elastic evictions. An explicitly pinned Shards — even one equal
	// to the worker count — stays pinned, preserving the bit-identity
	// promise of pinned runs; and any codec keeps the split fixed too, so
	// its slot-keyed state (1-bit error feedback) never remaps onto a
	// different shard's data mid-run.
	trackWorld := cfg.Shards == 0 && cfg.Codec == nil
	if cfg.Shards == 0 {
		cfg.Shards = len(replicas)
	}
	// The one flat-vs-hierarchical decision: a flat world is the P×1
	// hierarchy (see Flat).
	topo := Flat(cfg.Algo, len(replicas))
	if cfg.Topology != nil {
		topo = *cfg.Topology
	}
	// A fresh joiner starts outside the collective: no goroutine, no
	// hierarchy-node seat. The default split tracks the live world in both
	// directions, so an engine born with pending joiners shards like the
	// fresh smaller engine it is bit-identical to.
	e := &Engine{
		cfg:      cfg,
		replicas: replicas,
		params:   make([][]*nn.Param, len(replicas)),
		done:     make(chan error, len(replicas)),
		grads:    make([][]float32, cfg.Shards),
		losses:   make([]float64, cfg.Shards),
		evalOK:   make([]int, len(replicas)),
		roster:   newRoster(len(replicas), topo, cfg.Shards, trackWorld, cfg.Faults, cfg.StartStep),
		topo:     topo,
		steps:    cfg.StartStep,
	}
	if cfg.Profile {
		kernel.SetProfiling(true)
	}
	e.total.Membership.StepsAtWorld = make([]int64, len(replicas)+1)
	e.offsets = []int{0}
	for _, p := range replicas[0].Params() {
		e.offsets = append(e.offsets, e.offsets[len(e.offsets)-1]+p.Numel())
	}
	e.nparams = e.offsets[len(e.offsets)-1]
	e.weights = make([][]float32, len(replicas))
	master := make([]float32, 0, e.nparams)
	for w, r := range replicas {
		ps := r.Params()
		e.params[w] = ps
		if len(ps) != len(e.params[0]) {
			panic(fmt.Sprintf("dist: replica %d has %d params, master has %d", w, len(ps), len(e.params[0])))
		}
		for i, p := range ps {
			if n, want := p.Numel(), e.offsets[i+1]-e.offsets[i]; n != want {
				panic(fmt.Sprintf("dist: replica %d param %d (%s) has %d elements, master's has %d", w, i, p.Name, n, want))
			}
			if w == 0 {
				master = append(master, p.W.Data...)
			}
		}
		e.weights[w] = master
		view(master, ps, weightOf)
		if cfg.Overlap {
			r.SetGradNotify(e.gradReady)
		}
	}
	e.buckets = BucketRanges(e.nparams, cfg.BucketElems)
	e.remaining = make([]atomic.Int64, len(e.buckets))
	for s := range e.grads {
		e.grads[s] = make([]float32, e.nparams)
	}
	e.reduced = make([]float32, e.nparams)

	e.jobs = make([]chan job, len(replicas))
	for _, w := range e.roster.live {
		e.startWorker(w)
	}
	e.broadcast() // outside any profile window: the profile covers training steps
	return e
}

// BucketRanges splits [0, n) into chunks of at most elems coordinates — the
// bucket layout the engine reduces (and, under Config.Overlap, the
// granularity at which reductions hide inside the backward pass).
func BucketRanges(n, elems int) [][2]int {
	if elems <= 0 {
		elems = n
	}
	var out [][2]int
	for lo := 0; lo < n; lo += elems {
		out = append(out, [2]int{lo, min(lo+elems, n)})
	}
	return out
}

// gradReady is the per-parameter notification nn.Network.Backward fires on
// every replica under Config.Overlap: parameter pi's gradient is final in the
// shard's flat gradient for this chunk, so each bucket its coordinates fall
// into counts them off, and a bucket whose countdown reaches zero — every
// chunk of every live shard landed every coordinate — goes to the reduce
// stage. BucketRanges cuts equal buckets, so coordinate c lies in bucket
// c / width(bucket 0); an empty
// parameter touches no bucket. The atomic countdown plus the buffered channel
// give the reduce stage a happens-before edge over all shard writes it reads.
func (e *Engine) gradReady(pi int) {
	for lo, hi := e.offsets[pi], e.offsets[pi+1]; lo < hi; {
		bi := lo / e.buckets[0][1]
		end := min(hi, e.buckets[bi][1])
		if e.remaining[bi].Add(int64(lo-end)) == 0 {
			e.readyCh <- bi
		}
		lo = end
	}
}

// hidden reports whether bucket bi's reduction can hide inside the backward
// pass: it does unless it covers parameter 0, the last gradient to land
// (comm.ExpectedOverlapStats applies the same rule).
func (e *Engine) hidden(bi int) bool { return e.buckets[bi][0] >= e.offsets[1] }

// Workers returns the physical worker (replica) count.
func (e *Engine) Workers() int { return len(e.replicas) }

// Master returns the master replica, whose parameters the optimizer steps.
func (e *Engine) Master() *nn.Network { return e.replicas[0] }

// Steps returns Config.StartStep plus the optimizer steps taken — one per
// ComputeGradient or LocalStep, however many chunks its shards ran as: the
// clock of the fault plan and the membership timeline.
func (e *Engine) Steps() int64 { return e.steps }

// Close shuts down the worker goroutines. The engine must not be used
// afterwards; Close is idempotent.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	if e.cfg.Profile {
		kernel.SetProfiling(false)
	}
	for _, ch := range e.jobs {
		// Evicted workers and pending joiners have no channel.
		if ch != nil {
			close(ch)
		}
	}
	e.wg.Wait()
	// Unhook any gradient notifications so the replicas can be used (or
	// rewrapped in a new engine) after shutdown.
	for _, r := range e.replicas {
		r.SetGradNotify(nil)
	}
}

// startWorker gives worker w a fresh job channel and a goroutine draining
// it — at construction for the initial members, and again when an evicted
// (or never-started) worker joins the collective. The old goroutine, if
// any, exited when its eviction closed its channel; each ranges over the
// channel it is handed, so only the driving goroutine touches e.jobs.
func (e *Engine) startWorker(w int) {
	e.jobs[w] = make(chan job)
	e.wg.Add(1)
	go e.worker(w, e.jobs[w])
}

// worker is the lockstep loop of one persistent worker goroutine.
func (e *Engine) worker(w int, jobs <-chan job) {
	defer e.wg.Done()
	net := e.replicas[w]
	loss := &nn.SoftmaxCrossEntropy{}
	for j := range jobs {
		e.done <- e.run(w, net, loss, j)
	}
}

// run executes one job, converting panics anywhere below (shape drift, bad
// labels) into errors so a worker failure aborts the step instead of
// crashing the process.
func (e *Engine) run(w int, net *nn.Network, loss *nn.SoftmaxCrossEntropy, j job) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("dist: worker %d: %v", w, r)
		}
	}()
	switch j.kind {
	case jobGrad:
		e.shardGradients(w, net, loss, j)
	case jobLocal:
		// One local SGD step (Config.SyncEvery): the same per-shard
		// forward/backward, but the gradient stays on the worker — it is
		// reduced over the worker's own shards only and fed straight into
		// the worker's local optimizer. No collective runs until the
		// window's sync boundary averages the weights.
		e.shardGradients(w, net, loss, j)
		e.localReduceStep(w, j)
	case jobEval:
		correct := 0
		for slot, o := range j.owners {
			if o != w {
				continue
			}
			x, labels := sliceRows(j.x, j.labels, j.spans[slot][0], j.spans[slot][1])
			preds := net.Forward(x, false).ArgMaxRows()
			for i, p := range preds {
				if p == labels[i] {
					correct++
				}
			}
		}
		e.evalOK[w] = correct
	}
	return nil
}

// shardGradients runs forward/backward on every non-empty shard the job
// assigns worker w, leaving each shard's mean loss in e.losses and its flat
// gradient in e.grads, written in place through the replica's Param.G views
// — the worker half of both step entry points. A shard is cleared once,
// then its chunks (see chunks) run into it, every layer accumulating; each
// chunk's loss seed and loss are scaled by its share of the shard.
func (e *Engine) shardGradients(w int, net *nn.Network, loss *nn.SoftmaxCrossEntropy, j job) {
	for slot, o := range j.owners {
		lo, hi := j.spans[slot][0], j.spans[slot][1]
		if o != w || lo == hi {
			continue
		}
		clear(e.grads[slot])
		view(e.grads[slot], e.params[w], gradOf)
		e.losses[slot] = 0
		rows, _ := e.chunks(hi - lo)
		for c := lo; c < hi; c += rows {
			end := min(c+rows, hi)
			x, labels := sliceRows(j.x, j.labels, c, end)
			out := net.Forward(x, true)
			e.losses[slot] += float64(end-c) / float64(hi-lo) * loss.Forward(out, labels)
			dl := loss.Backward()
			// The chunk's share of the shard (1 for a whole shard), times
			// the mixed-precision loss scale, which lifts the seed so small
			// values survive binary16 storage downstream; the trainer
			// unscales after reduction.
			f := float32(end-c) / float32(hi-lo)
			if s := e.lossScale; s != 0 {
				f *= s
			}
			if f != 1 {
				for i := range dl.Data {
					dl.Data[i] *= f
				}
			}
			net.BackwardParams(dl)
		}
	}
}

// chunks returns how a shard of n rows runs: as count micro-batches of at
// most rows rows — Config.MicroBatch, or one whole chunk when that is off or
// no smaller than the shard.
func (e *Engine) chunks(n int) (rows, count int) {
	if m := e.cfg.MicroBatch; m > 0 && m < n {
		return m, (n + m - 1) / m
	}
	return n, 1
}

// sliceRows returns an aliasing view of rows [lo, hi) of a batch tensor and
// its labels.
func sliceRows(x *tensor.Tensor, labels []int, lo, hi int) (*tensor.Tensor, []int) {
	rowLen := x.Numel() / x.Shape[0]
	shape := append([]int{hi - lo}, x.Shape[1:]...)
	return tensor.FromSlice(x.Data[lo*rowLen:hi*rowLen], shape...), labels[lo:hi]
}

// gradOf and weightOf name the tensor of a parameter a flat vector backs.
func gradOf(p *nn.Param) *tensor.Tensor   { return p.G }
func weightOf(p *nn.Param) *tensor.Tensor { return p.W }

// view points the named tensor of every parameter at its run of flat, in
// Params() order — no copy: the tensor's values become flat's.
func view(flat []float32, params []*nn.Param, of func(*nn.Param) *tensor.Tensor) {
	off := 0
	for _, p := range params {
		n := p.Numel()
		of(p).Data = flat[off : off+n : off+n]
		off += n
	}
}

// dispatch sends the job to each of the given workers and waits for the
// lockstep barrier, returning the first worker error. Evicted and
// currently-dead workers are simply not in the list — the barrier only
// waits on workers that can answer.
func (e *Engine) dispatch(workers []int, j job) error {
	if e.closed {
		panic("dist: engine used after Close")
	}
	for _, w := range workers {
		e.jobs[w] <- j
	}
	var first error
	for range workers {
		if err := <-e.done; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// step is the one training-step template; ComputeGradient and LocalStep are
// bodies passed to it, each handed the step's job — the batch, the row span
// of every logical shard and which worker computes which — and the workers
// that can answer (see roster.members). It owns everything the two share:
// batch validation, the no-forever-retry check, the per-step ledger reset,
// the profile window, membership changes at the step's boundaries — opens
// admits the workers the plan schedules to join before the batch is sharded,
// so the step itself runs (and is accounted) at the grown world size,
// warm-started from the admission broadcast; closes strikes the workers the
// plan holds dead and evicts those whose recovery has failed
// Elastic.EvictAfter consecutive times after the step is filed — the shard
// plan, the step counter and the shard-weighted batch-mean loss. A body that
// fails leaves the step uncounted.
func (e *Engine) step(op string, x *tensor.Tensor, labels []int, opens, closes bool, body func(j job, active []int) error) (float64, error) {
	b := x.Shape[0]
	if b == 0 {
		panic("dist: " + op + " on an empty batch")
	}
	if len(labels) != b {
		panic(fmt.Sprintf("dist: %d labels for batch of %d", len(labels), b))
	}
	if err := e.checkDead(e.steps); err != nil {
		return 0, err
	}
	e.last = Report{Membership: MembershipStats{StepsAtWorld: make([]int64, len(e.replicas)+1)}}
	var spans [][2]int
	err := e.window(func() error {
		if opens {
			e.apply(e.roster.admit(e.cfg.Faults, e.steps))
		}
		spans = data.Spans(b, e.roster.shards)
		if err := body(job{x: x, labels: labels, spans: spans, owners: e.ShardOwners()}, e.members()); err != nil {
			return err
		}
		e.noteStep() // filed at the world size the step executed at
		if !closes {
			e.steps++
			return nil
		}
		e.roster = e.roster.strike(e.cfg.Faults, e.steps)
		e.steps++
		if e.cfg.Elastic != nil {
			e.apply(e.roster.evict(e.cfg.Elastic.evictAfter(), e.steps))
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	var loss float64
	for s, span := range spans {
		if span[0] == span[1] {
			continue
		}
		loss += float64(span[1]-span[0]) / float64(b) * e.losses[s]
	}
	return loss, nil
}

// window runs fn inside a profile window — the only place one is opened, and
// only step and BroadcastWeights open one. Nothing either calls opens
// another, so no instant is attributed twice.
func (e *Engine) window(fn func() error) error {
	if !e.cfg.Profile {
		return fn()
	}
	base, start := kernel.ProfileSnapshot()
	err := fn()
	e.add(Report{Profile: profileDelta(base, start)})
	return err
}

// ComputeGradient splits the global batch x ([B, ...] with len(labels) == B)
// into the engine's logical shards, runs forward/backward on every shard
// across the worker replicas in lockstep, and allreduces the shard
// gradients — weighted by shard size, canonically ordered — into the master
// replica's parameter gradients. Under Config.Overlap each bucket's
// reduction fires the moment the gradients it covers are final on every
// shard, concurrently with the still-running backward pass; otherwise all
// buckets reduce after the barrier. Either way the reduced values are
// bit-identical. It returns the batch-mean loss. Every replica views the
// master's weights, so each shard sees the optimizer's last step. Every step
// is a membership boundary on both sides.
func (e *Engine) ComputeGradient(x *tensor.Tensor, labels []int) (float64, error) {
	return e.step("ComputeGradient", x, labels, true, true, func(j job, active []int) error {
		// The batch-mean weight of every non-empty (live) shard, and how
		// many chunks land each coordinate: every chunk of every live shard.
		var live []int
		var weights []float64
		var chunks int64
		for s, span := range j.spans {
			if n := span[1] - span[0]; n != 0 {
				live = append(live, s)
				weights = append(weights, float64(n)/float64(len(labels)))
				_, k := e.chunks(n)
				chunks += int64(k)
			}
		}
		// The reduce stage takes each bucket as it becomes ready: from the
		// hooks inside the backward pass under Overlap, otherwise all of them
		// after the barrier. The step's schedule is gathered here and filed
		// only once every worker has answered, so a failed step accounts
		// nothing. (A data-dependent codec's error-feedback state may still
		// have advanced for buckets reduced before the failure surfaced — the
		// aborted step's values are discarded either way.)
		var d Report
		payloads := make([]int64, len(e.buckets))
		for bi, b := range e.buckets {
			e.remaining[bi].Store(int64(b[1]-b[0]) * chunks)
		}
		// Buffered to the bucket count so no send ever blocks, even when the
		// reduce stage lags or a step aborts.
		e.readyCh = make(chan int, len(e.buckets))
		abort, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for range e.buckets {
				select {
				case bi := <-e.readyCh:
					payloads[bi] = e.reduceBucket(&d, bi, live, e.grads, weights, e.cfg.Overlap && e.hidden(bi))
				case <-abort:
					return
				}
			}
		}()
		err := e.dispatch(active, j)
		if err != nil {
			// A failed worker leaves bucket countdowns unresolved; the
			// reduce stage would wait forever without the abort.
			close(abort)
		} else if !e.cfg.Overlap {
			for bi := range e.buckets {
				e.readyCh <- bi
			}
		}
		<-done
		if err != nil {
			return err
		}
		view(e.reduced, e.params[0], gradOf)
		e.injectFaults(&d, payloads)
		e.add(d)
		return nil
	})
}

// reduceBucket reduces bucket bi of the source vectors bufs[id], id ∈ ids —
// the live shards' gradients, or the active workers' weights at a local-SGD
// averaging round — into e.reduced: the codec's wire is applied to every
// source's payload (rounded on read under FP16Codec, transformed in place
// under any other codec), the schedule of the topology is accounted into d
// (hidden when the overlap scheduler fired the bucket inside the backward
// pass), and the weighted sum lands in the scratch vector. Under the fp16
// wire that is one pass per bucket: each source's payload is read once and
// the sum written once, and no source is written. It returns the rounded
// mean wire payload so fault recovery prices resends consistently. Safe to
// run concurrently with workers still back-propagating other buckets'
// coordinates: it only touches [lo, hi).
func (e *Engine) reduceBucket(d *Report, bi int, ids []int, bufs [][]float32, weights []float64, hidden bool) int64 {
	lo, hi := e.buckets[bi][0], e.buckets[bi][1]
	wireTotal := e.transform(bi, ids, bufs)
	d.file(e.reduceTiers(wireTotal, len(ids)), hidden)
	sp := kernel.StartPhase(kernel.PhaseReduce)
	srcs := make([][]float32, len(ids))
	for i, id := range ids {
		srcs[i] = bufs[id][lo:hi]
	}
	e.accumulate(e.reduced[lo:hi], srcs, weights, e.halfWire())
	sp.End()
	n := int64(len(ids))
	return (wireTotal + n/2) / n
}

// reduceTiers returns the per-tier schedule of one bucket's reduction at the
// current membership. wireTotal is the summed wire bytes of the bucket
// across all n sources: the schedule's byte totals are the schedule factor
// times the mean payload, computed multiply-first/divide-last so non-uniform
// codec payloads are accounted exactly (to the byte) instead of through a
// truncated per-source mean.
func (e *Engine) reduceTiers(wireTotal int64, n int) TierStats {
	sizes := e.roster.sizes
	t := HierReduceSchedule(e.topo, sizes, 0)
	t.Intra.Bytes = degradedIntraBytesFactor(e.topo, sizes) * wireTotal / int64(n)
	t.Inter.Bytes = reduceBytesFactor(e.topo.Inter, len(sizes)) * wireTotal / int64(n)
	return t
}

// transform applies the codec's in-place part to bucket bi of every source
// vector bufs[id], id ∈ ids, and returns the summed wire bytes: 4 per
// coordinate on the raw wire and 2 on the fp16 wire, neither of which
// writes a payload (the fp16 wire rounds on read, in accumulate), and
// whatever a stateful codec's Transform reports, which may differ per
// payload for data-dependent codecs, hence the exact sum. Slots are keyed
// id·len(buckets)+bi — by logical shard for gradients, by worker for
// local-SGD weights — so stateful codecs (1-bit error feedback) carry
// per-source residuals across rounds; an engine is driven through one entry
// point only, so the two keyings never meet.
func (e *Engine) transform(bi int, ids []int, bufs [][]float32) int64 {
	lo, hi := e.buckets[bi][0], e.buckets[bi][1]
	switch {
	case e.cfg.Codec == nil:
		return 4 * int64(hi-lo) * int64(len(ids))
	case e.halfWire():
		return 2 * int64(hi-lo) * int64(len(ids))
	}
	defer kernel.StartPhase(kernel.PhaseCodec).End()
	var total atomic.Int64
	tasks := make([]func(), len(ids))
	for i, id := range ids {
		slot, seg := id*len(e.buckets)+bi, bufs[id][lo:hi]
		tasks[i] = func() { total.Add(e.cfg.Codec.Transform(slot, seg)) }
	}
	par.Do(tasks...)
	return total.Load()
}

// halfWire reports whether the wire is FP16Codec's, whose rounding the
// reduce applies as it reads each source.
func (e *Engine) halfWire() bool {
	_, ok := e.cfg.Codec.(FP16Codec)
	return ok
}

// accumulate writes Σ weights[i]·srcs[i] into dst under Config.Reduction —
// canonical float64 or the fixed-tree pairwise float32 kernel, whose scales
// are the weights rounded to float32 — with every source value rounded
// through binary16 as it is read when half is set (the fp16 wire). Both
// kernels are chunking-invariant, so the parallel decomposition never
// affects the reduced bits.
func (e *Engine) accumulate(dst []float32, srcs [][]float32, weights []float64, half bool) {
	var scales []float32
	if e.cfg.Reduction == PairwiseF32 {
		scales = make([]float32, len(weights))
		for i, w := range weights {
			scales[i] = float32(w)
		}
	}
	par.ForGrain(len(dst), 2048, func(l, h int) {
		sub := make([][]float32, len(srcs))
		for i := range srcs {
			sub[i] = srcs[i][l:h]
		}
		switch {
		case scales != nil && half:
			kernel.PairwiseAccumulateHalf(dst[l:h], sub, scales)
		case scales != nil:
			kernel.PairwiseAccumulate(dst[l:h], sub, scales)
		case half:
			kernel.CanonicalAccumulateHalf(dst[l:h], sub, weights)
		default:
			kernel.CanonicalAccumulate(dst[l:h], sub, weights)
		}
	})
}

// injectFaults rolls the fault plan for the current step and accounts the
// recovery traffic into d: a dropped worker payload is re-requested and
// resent (Retries plus that worker's sender share of every bucket), a
// straggler holds the barrier for one round (Stalls). A permanently dead
// worker's step is a failed recovery: a survivor recomputes its shards and
// the resend is accounted the same way (the step's closing strike counts it
// toward Elastic.EvictAfter). The traffic lands on the tier the worker sends
// on — intra for node members, inter for the surviving node leaders (every
// worker of a flat world). Recovery happens at the step barrier, so it is
// always exposed. Values are never affected — recovery is exact, which is
// what keeps faulty runs bit-identical to clean ones.
func (e *Engine) injectFaults(d *Report, payloads []int64) {
	f := e.cfg.Faults
	if !f.enabled() || len(e.roster.live) == 1 {
		return
	}
	for _, w := range e.roster.live {
		// Failed recovery: the re-request goes unanswered and a survivor
		// recomputes and resends the dead worker's shards.
		drop, stall := true, false
		if !f.deadAt(e.steps, w) {
			drop, stall = f.roll(e.steps, w)
		}
		if !drop && !stall {
			continue
		}
		leader, nodeSize, liveNodes := e.roster.seat(w)
		var t TierStats
		sendsOn := &t.Intra
		if leader {
			sendsOn = &t.Inter
		}
		if drop {
			for _, payload := range payloads {
				t.Add(degradedSenderShare(e.topo, leader, nodeSize, liveNodes, payload))
			}
			sendsOn.Retries = 1
		}
		if stall {
			sendsOn.Stalls = 1
		}
		d.file(t, false)
	}
}

// BroadcastWeights is the weight-distribution phase following the optimizer
// step, inside its own profile window: after it, every active replica
// computes with the master's weights, which in synchronous mode it already
// views. The error is always nil: NewEngine checked the layout.
func (e *Engine) BroadcastWeights() error {
	return e.window(func() error { e.broadcast(); return nil })
}

// broadcast accounts the broadcast schedule per bucket (always exposed: it
// runs after the optimizer step, at construction, or at a membership or sync
// boundary); in local-SGD mode it also copies the master's flat weights to
// every other active replica's own.
func (e *Engine) broadcast() {
	if e.localGrads != nil {
		var bufs [][]float32 // the master's first: members ascend
		for _, w := range e.members() {
			bufs = append(bufs, e.weights[w])
		}
		fanOut(bufs)
	}
	var d Report
	for _, bucket := range e.buckets {
		d.file(HierBroadcastSchedule(e.topo, e.roster.sizes, 4*int64(bucket[1]-bucket[0])), false)
	}
	e.add(d)
}

// EvalAccuracy computes top-1 accuracy of the master weights over the
// images, processed data-parallel in chunks of at most batch rows assigned
// round-robin to the workers: in synchronous mode each views the master's
// weights. Under Config.SyncEvery > 1 the replicas disagree inside a window,
// so the first member grades every chunk alone. A worker failure (bad
// labels, shape drift) is returned as an error.
func (e *Engine) EvalAccuracy(images *tensor.Tensor, labels []int, batch int) (float64, error) {
	workers := e.members()
	if e.cfg.SyncEvery > 1 {
		workers = workers[:1]
	}
	n := images.Shape[0]
	if n == 0 {
		return 0, nil
	}
	if batch <= 0 || batch > n {
		batch = n
	}
	var spans [][2]int
	for lo := 0; lo < n; lo += batch {
		spans = append(spans, [2]int{lo, min(lo+batch, n)})
	}
	if err := e.dispatch(workers, job{kind: jobEval, x: images, labels: labels, spans: spans, owners: owners(workers, len(spans))}); err != nil {
		return 0, err
	}
	correct := 0
	for _, w := range workers {
		correct += e.evalOK[w]
	}
	return float64(correct) / float64(n), nil
}
