package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/serve"
)

const (
	// warmSteps is the length of the untimed training call that ends set-up.
	warmSteps = 8
	// shortSteps bounds the mirror segments that are run twice or
	// profiled: tracing overhead, phase profile, single-worker baseline.
	shortSteps = 32
)

// check is one verified property: of the program's output (report.Checks) or
// of the measurement itself (report.Limits).
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// report is everything one run of one workload measured and verified.
// Attempted counts optimizer steps or requests; Failed those of calls that
// failed a check. Limits holds what the traced run requires of its own
// timing — span coverage, mirror gap, profile sum. Those read the host's
// noise as well as the program, so a reading outside one is printed and
// recorded but leaves Correct and the exit code alone.
type report struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Checks    []check           `json:"checks"`
	Limits    []check           `json:"limits,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

func newReport(w workload, seed uint64, trace bool) *report {
	return &report{Workload: w.name, Seed: seed, Trace: trace, Correct: true, Metrics: map[string]metric{}}
}

// check records one verification and returns whether it held.
func (r *report) check(name string, ok bool, format string, args ...any) bool {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
		r.Correct = false
	}
	r.Checks = append(r.Checks, c)
	return ok
}

// limit records one requirement on the run's own timing.
func (r *report) limit(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Limits = append(r.Limits, c)
}

// count files n attempted operations, failed when ok is false.
func (r *report) count(n int, ok bool) {
	r.Attempted += int64(n)
	if !ok {
		r.Failed += int64(n)
	}
}

// runWorkload runs the end-to-end measurement (trace false) or the traced
// per-layer run (trace true) of one workload. The spans are returned for
// the trace file.
func runWorkload(w workload, seed uint64, budget time.Duration, trace bool) (*report, []span, error) {
	switch {
	case w.serving && trace:
		return serveTraced(w, seed)
	case w.serving:
		rep, err := serveEndToEnd(w, seed, budget)
		return rep, nil, err
	case trace:
		return trainTraced(w, seed)
	default:
		rep, err := trainEndToEnd(w, seed, budget)
		return rep, nil, err
	}
}

// endToEndMetrics fills the metrics every untraced run reports from the
// seconds each set-up took, the items per second of each timed call and the
// operations filed so far.
func (r *report) endToEndMetrics(w workload, setups, rates []float64) {
	r.Metrics["ops_failed_frac"] = value(float64(r.Failed)/float64(r.Attempted), "fraction")
	r.Metrics["setup_s"] = repeats(setups, "s")
	r.Metrics["items_per_s"] = repeats(rates, "1/s")
	gflop := w.flopsPerItem() / 1e9
	gflops := make([]float64, len(rates))
	for i, v := range rates {
		gflops[i] = v * gflop
	}
	r.Metrics["gflop_per_s"] = repeats(gflops, "GFLOP/s")
}

// repeatTimed calls f until the next call would overrun the budget, and at
// least minRepeats times. Every call starts from a collected heap, so that
// one call's garbage is neither the next one's GC work nor part of the
// process's peak RSS by accident of timing.
func repeatTimed(budget time.Duration, minRepeats int, f func() error) error {
	began := time.Now()
	for n := 0; ; n++ {
		runtime.GC()
		t0 := time.Now()
		if err := f(); err != nil {
			return err
		}
		if n+1 >= minRepeats && time.Since(began)+time.Since(t0) > budget {
			return nil
		}
	}
}

// timedSetups sets up n times, collecting the previous set-up's garbage
// outside the timed window, and returns the last set-up with the seconds
// each took.
func timedSetups[T any](n int, setup func() (T, error)) (last T, seconds []float64, err error) {
	for i := 0; i < n; i++ {
		var zero T
		last = zero
		runtime.GC()
		t0 := time.Now()
		if last, err = setup(); err != nil {
			return last, nil, err
		}
		seconds = append(seconds, time.Since(t0).Seconds())
	}
	return last, seconds, nil
}

// walls holds the wall-clock times of two calls, a and b, made in pairs.
type walls [2][]time.Duration

// add runs a and b n more times each, one pair after the other, every call
// from a collected heap. Which of the two goes first alternates from pair to
// pair, so that neither is always the one that runs second.
func (w *walls) add(n int, a, b func() (time.Duration, error)) error {
	calls := [2]func() (time.Duration, error){a, b}
	for ; n > 0; n-- {
		first := len(w[0]) % 2
		for _, i := range [2]int{first, 1 - first} {
			runtime.GC()
			d, err := calls[i]()
			if err != nil {
				return err
			}
			w[i] = append(w[i], d)
		}
	}
	return nil
}

// gap is how much longer b's shortest wall is than a's, as a share of a's.
// The host's noise only ever slows a call down, and by a quarter for seconds
// at a time, so the ratio of two single walls says little; the shortest wall
// of each side is the reading least touched by it.
func (w walls) gap() float64 {
	return slices.Min(w[1]).Seconds()/slices.Min(w[0]).Seconds() - 1
}

// Limits of the traced run on itself: what its spans must cover of the
// mirror loop's wall, and how far the mirror's shortest wall may lie from the
// entry point's before the mirror counts as a different loop.
const (
	minCoverage  = 0.98
	maxMirrorGap = 0.05
)

// mirrorLimits holds the traced run to its limits.
func (r *report) mirrorLimits(spans []span, ws walls) {
	cov := coverage(spans, 0)
	r.limit(fmt.Sprintf("spans cover >= %.0f %% of the mirror loop's wall", 100*minCoverage), cov >= minCoverage, "they cover %.4f", cov)
	r.limit(fmt.Sprintf("mirror wall within %.0f %% of the entry point's", 100*maxMirrorGap), math.Abs(ws.gap()) <= maxMirrorGap,
		"the shortest of %d walls each differ by %.4f: the host was noisy, or the mirror loop has drifted from its entry point", len(ws[0]), ws.gap())
}

// --- training ---

// setupTrain generates the dataset and ends with a short untimed
// core.Train over the first warmSteps batches — every resolution of the
// schedule once — so the heap, the scratch pools and the clocks are warm
// before anything is timed.
func setupTrain(w workload, seed uint64) (*data.Synth, error) {
	ds := w.dataset(seed)
	cfg := w.trainConfig(seed)
	cfg.Epochs = 1
	if rs := cfg.Resolutions; rs != nil {
		phases := rs.PhasesIn(w.train.Epochs)
		cfg.Epochs = phases[len(phases)-1].From + 1
	}
	idx := make([]int, min(warmSteps*cfg.Batch, ds.Train.Len()))
	for i := range idx {
		idx[i] = i
	}
	sub, err := ds.Train.Subset(idx)
	if err != nil {
		return nil, err
	}
	if _, err := core.Train(cfg, &data.Synth{Train: sub, Test: ds.Test, Templates: ds.Templates, Config: ds.Config}); err != nil {
		return nil, err
	}
	return ds, nil
}

// expectedComm is the closed form of a whole run's cumulative counters:
// every step reduces, every step the scaler did not skip broadcasts, and
// dist.NewEngine broadcasts the weights once at construction.
func expectedComm(cfg core.Config, wire comm.WireSizer, nparams int, steps, skipped int64) dist.CommStats {
	want := comm.ExpectedLocalSGDStats(cfg.Algo, cfg.Workers, 1, steps, nparams, cfg.Bucket, wire)
	bcast := broadcastStats(cfg.Algo, cfg.Workers, nparams, cfg.Bucket)
	for i := int64(0); i < skipped; i++ {
		subStats(&want, bcast)
	}
	want.Add(bcast)
	return want
}

// checkTrained verifies one finished training call — core.Train's or the
// mirror's — and files its steps.
func (r *report) checkTrained(w workload, what string, steps int, diverged bool, acc float64) {
	ok := r.check(what+" did not diverge", !diverged, "loss left the trainable range")
	ok = r.check(fmt.Sprintf("%s accuracy >= %.2f", what, w.accFloor), acc >= w.accFloor, "test accuracy %.4f", acc) && ok
	r.count(steps, ok)
}

func trainEndToEnd(w workload, seed uint64, budget time.Duration) (*report, error) {
	rep := newReport(w, seed, false)
	ds, setups, err := timedSetups(w.effort().setups, func() (*data.Synth, error) { return setupTrain(w, seed) })
	if err != nil {
		return nil, err
	}
	var rates []float64
	cfg := w.trainConfig(seed)
	wire, err := wireOf(cfg.Codec)
	if err != nil {
		return nil, err
	}
	nparams := w.model(seed).NumParams()
	var first *core.Result
	err = repeatTimed(budget, w.effort().minRepeats, func() error {
		res, err := core.Train(cfg, ds)
		if err != nil {
			return err
		}
		if first == nil {
			first = res
		}
		n := len(rates)
		rates = append(rates, float64(w.items())/res.Wall.Seconds())
		rep.checkTrained(w, fmt.Sprintf("repeat %d", n), int(res.Iterations), res.Diverged, res.TestAcc)
		rep.check(fmt.Sprintf("repeat %d final loss bit-equal to repeat 0", n),
			math.Float64bits(res.FinalLoss) == math.Float64bits(first.FinalLoss), "%v vs %v", res.FinalLoss, first.FinalLoss)
		want := expectedComm(cfg, wire, nparams, res.Iterations, int64(res.Scale.Overflows))
		rep.check(fmt.Sprintf("repeat %d comm counters equal the closed form", n),
			statsDistance(res.Comm, want) == 0, "measured %+v, closed form %+v", res.Comm, want)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.endToEndMetrics(w, setups, rates)
	rep.Metrics["train_test_acc"] = value(first.TestAcc, "fraction")
	return rep, nil
}

func trainTraced(w workload, seed uint64) (*report, []span, error) {
	rep := newReport(w, seed, true)
	ds, err := setupTrain(w, seed)
	if err != nil {
		return nil, nil, err
	}
	cfg := w.trainConfig(seed)
	short := min(shortSteps, w.stepsPerEpoch())

	// The reference call and the traced mirror, alternately; the first of
	// each is the one checked and reported from.
	var ref *core.Result
	var mir *trainMirror
	tr := newTracer()
	var before, after runtime.MemStats
	var mirWalls walls
	err = mirWalls.add(w.effort().pairs, func() (time.Duration, error) {
		res, err := core.Train(cfg, ds)
		if err != nil {
			return 0, err
		}
		if ref == nil {
			ref = res
		}
		return res.Wall, nil
	}, func() (time.Duration, error) {
		if mir != nil {
			m, err := mirrorTrain(cfg, ds, newTracer(), 0, false)
			if err != nil {
				return 0, err
			}
			return m.wall, nil
		}
		runtime.ReadMemStats(&before)
		m, err := mirrorTrain(cfg, ds, tr, 0, false)
		if err != nil {
			return 0, err
		}
		runtime.ReadMemStats(&after)
		mir = m
		return m.wall, nil
	})
	if err != nil {
		return nil, nil, err
	}
	rep.checkTrained(w, "core.Train", int(ref.Iterations), ref.Diverged, ref.TestAcc)
	rep.checkTrained(w, "mirror", len(mir.losses), mir.diverged, mir.testAcc)
	rep.count((len(mirWalls[0])-1)*(int(ref.Iterations)+len(mir.losses)), true) // the later pairs
	rep.mirrorLimits(tr.spans, mirWalls)
	rep.check("mirror final loss bit-equal to core.Train", math.Float64bits(mir.finalLoss) == math.Float64bits(ref.FinalLoss),
		"mirror %v, core.Train %v: the mirror loop has drifted from core.Train", mir.finalLoss, ref.FinalLoss)
	rep.check("mirror accuracy equal to core.Train", mir.testAcc == ref.TestAcc, "mirror %v, core.Train %v", mir.testAcc, ref.TestAcc)
	rep.check("per-step comm counters equal the closed form", mir.commDelta == 0, "summed distance %d", mir.commDelta)

	// The same short segment untraced and traced, twice each, and profiled.
	shortWall := func(tr func() *tracer) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			m, err := mirrorTrain(cfg, ds, tr(), short, false)
			if err != nil {
				return 0, err
			}
			return m.wall, nil
		}
	}
	pairs := w.effort().pairs
	var overhead walls
	if err := overhead.add(pairs, shortWall(func() *tracer { return nil }), shortWall(newTracer)); err != nil {
		return nil, nil, err
	}
	prof, err := mirrorTrain(cfg, ds, nil, short, true)
	if err != nil {
		return nil, nil, err
	}
	rep.count((2*pairs+1)*short, true)

	if w.singleWorkerBaseline {
		// The plain single-worker baseline: the same two shards on one
		// worker must reproduce the two-worker losses bit for bit.
		one := cfg
		one.Workers, one.Shards = 1, cfg.Workers
		base, err := mirrorTrain(one, ds, nil, short, false)
		if err != nil {
			return nil, nil, err
		}
		same := len(base.losses) == short
		for i := 0; same && i < short; i++ {
			same = math.Float64bits(base.losses[i]) == math.Float64bits(mir.losses[i])
		}
		rep.check("single-worker losses bit-equal to two workers", same, "first %d steps differ", short)
		rep.count(short, same)
	}

	m := rep.Metrics
	for k, v := range probes(w, ds, seed) {
		m[k] = v
	}
	loopMetrics(m, tr.spans, "step", before, after)
	m["loop.mirror_gap_frac"] = value(mirWalls.gap(), "fraction")
	m["loop.trace_overhead_frac"] = value(overhead.gap(), "fraction")

	epochs := named(tr.spans, "epoch")
	for i := range epochs {
		epochs[i] /= 1e3
	}
	m["core.epoch_s_p50"] = median(epochs, "s")
	m["core.test_acc"] = value(mir.testAcc, "fraction")
	grads := named(tr.spans, "dist.compute_gradient")
	m["dist.grad_ms_p50"] = summarize(grads, 0.5, "ms")
	m["dist.grad_ms_p90"] = summarize(grads, 0.9, "ms")
	m["dist.bcast_ms_p50"] = median(named(tr.spans, "dist.broadcast"), "ms")
	m["dist.eval_ms"] = median(named(tr.spans, "dist.eval"), "ms")
	// The gradient call at the native resolution, less one replica's
	// forward, loss and backward at the shard batch on an idle machine.
	var native []float64
	for _, s := range tr.spans {
		if s.Name != "dist.compute_gradient" {
			continue
		}
		h, wd := w.micro.InH, w.micro.InW
		if rs := cfg.Resolutions; rs != nil {
			h, wd = rs.At((s.Step - 1) / w.stepsPerEpoch())
		}
		if h == w.micro.InH && wd == w.micro.InW {
			native = append(native, ms(s.dur()))
		}
	}
	m["dist.nonhidden_ms"] = value(quantile(native, 0.5)-m["nn.fwd_ms_p50"].Value-m["nn.loss_ms_p50"].Value-m["nn.bwd_ms_p50"].Value, "ms")
	m["dist.bytes_per_step"] = value(float64(mir.step.Bytes), "B")
	m["dist.msgs_per_step"] = value(float64(mir.step.Messages), "count")
	m["dist.rounds_per_step"] = value(float64(mir.step.Steps), "count")
	m["dist.hidden_byte_frac"] = value(mir.hidden, "fraction")
	p := prof.profile
	shares := map[string]int64{"gemm": p.GemmNS, "im2col": p.Im2colNS, "convert": p.ConvertNS,
		"reduce": p.ReduceNS, "codec": p.CodecNS, "other": p.OtherNS}
	for k, ns := range shares {
		m["dist.prof_"+k+"_share"] = value(float64(ns)/float64(p.Accounted()), "fraction")
	}
	// dist documents the six phases as summing to the wall exactly, but
	// kernel's profiler reads its clock before it takes its lock, so a
	// goroutine descheduled between the two sets the clock back and the wait
	// is attributed twice: 0.2 % more than the window holds was seen. The
	// shares are taken of the phases' own sum, and the check allows 5 %.
	rep.limit("profile phases sum to the profiled wall within 5 %", p.WallNS > 0 && math.Abs(float64(p.Accounted())/float64(p.WallNS)-1) <= 0.05,
		"%d of %d ns", p.Accounted(), p.WallNS)
	m["comm.closed_form_delta"] = value(float64(mir.commDelta), "count")
	m["data.wait_share"] = value(m["loop.share.data.gather"].Value+m["loop.share.data.augment"].Value, "fraction")
	m["opt.skipped_steps"] = value(float64(mir.skipped), "count")
	return rep, tr.spans, nil
}

// loopMetrics fills the metrics both mirror loops share from the traced
// run's spans, the first of which is the loop's root: the wall of one step
// (an optimizer step or a served batch), the share of the loop's wall under
// each span name, what the spans cover, and what the loop allocated.
func loopMetrics(m map[string]metric, spans []span, stepName string, before, after runtime.MemStats) {
	const root = 0
	steps := named(spans, stepName)
	m["loop.step_ms_p50"] = summarize(steps, 0.5, "ms")
	m["loop.step_ms_p90"] = summarize(steps, 0.9, "ms")
	m["loop.span_coverage_frac"] = value(coverage(spans, root), "fraction")
	m["loop.alloc_kb_per_step"] = value(float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(len(steps)), "KB")
	m["loop.gc_pause_ms"] = value(float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, "ms")
	self := selfTimes(spans)
	total := map[string]time.Duration{}
	for i, s := range spans {
		total[s.Name] += self[i]
	}
	for name, d := range total {
		m["loop.share."+name] = value(float64(d)/float64(spans[root].dur()), "fraction")
	}
}

// --- serving ---

// servingSetup is a set-up pool with the images it serves and the class a
// direct forward of every image gives.
type servingSetup struct {
	pool   *serve.Pool
	ds     *data.Synth
	direct []int
}

// setupServe generates the images, hands a freshly built model over through
// checkpoint.FromNetwork → Write → Read → serve.PoolFromCheckpoint, sets the
// precision and serves the short warm-up trace, which touches every batch
// size and so allocates every shape's scratch.
func setupServe(w workload, seed uint64) (*servingSetup, error) {
	ds := w.dataset(seed)
	var buf bytes.Buffer
	if err := checkpoint.FromNetwork(w.model(seed), 0).Write(&buf); err != nil {
		return nil, err
	}
	ckpt, err := checkpoint.Read(&buf)
	if err != nil {
		return nil, err
	}
	pool, err := serve.PoolFromCheckpoint(w.pool, func() *nn.Network { return w.model(seed) }, ckpt)
	if err != nil {
		return nil, err
	}
	pool.SetPrecision(w.precision)
	if _, _, err := pool.Run(w.trace(w.warmRequests, seed), ds.Test.Images); err != nil {
		return nil, err
	}
	return &servingSetup{pool: pool, ds: ds}, nil
}

// checkServed verifies one served trace against a direct forward of the
// whole image set on replica 0 and files its requests.
func (r *report) checkServed(s *servingSetup, what string, trace serve.Trace, stats serve.Stats, preds []int) {
	if s.direct == nil {
		s.direct = s.pool.Replica(0).Forward(s.ds.Test.Images, false).ArgMaxRows()
	}
	wrong := 0
	for i, req := range trace.Requests {
		if preds[i] != s.direct[req.Image] {
			wrong++
		}
	}
	r.check(what+" rejected no request", stats.Rejected == 0 && stats.Completed == int64(len(trace.Requests)),
		"%d rejected, %d completed of %d", stats.Rejected, stats.Completed, len(trace.Requests))
	r.check(what+" predictions equal a direct forward", wrong == 0, "%d of %d requests differ", wrong, len(trace.Requests))
	r.Attempted += int64(len(trace.Requests))
	r.Failed += int64(wrong)
}

func serveEndToEnd(w workload, seed uint64, budget time.Duration) (*report, error) {
	rep := newReport(w, seed, false)
	s, setups, err := timedSetups(w.effort().setups, func() (*servingSetup, error) { return setupServe(w, seed) })
	if err != nil {
		return nil, err
	}
	var rates []float64
	trace := w.trace(w.requests, seed)
	err = repeatTimed(budget, w.effort().minRepeats, func() error {
		t0 := time.Now()
		res, preds, err := s.pool.Run(trace, s.ds.Test.Images)
		if err != nil {
			return err
		}
		wall := time.Since(t0)
		rep.checkServed(s, fmt.Sprintf("repeat %d", len(rates)), trace, res.Stats, preds)
		rates = append(rates, float64(res.Stats.Completed)/wall.Seconds())
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.endToEndMetrics(w, setups, rates)
	return rep, nil
}

func serveTraced(w workload, seed uint64) (*report, []span, error) {
	rep := newReport(w, seed, true)
	s, err := setupServe(w, seed)
	if err != nil {
		return nil, nil, err
	}
	images := s.ds.Test.Images
	trace, short := w.trace(w.requests, seed), w.trace(w.warmRequests, seed)

	// The reference call and the traced mirror, alternately; the first of
	// each is the one checked and reported from.
	var ref *serve.Report
	var refPreds []int
	var mir *serveMirror
	tr := newTracer()
	var before, after runtime.MemStats
	var mirWalls walls
	err = mirWalls.add(w.effort().pairs, func() (time.Duration, error) {
		t0 := time.Now()
		res, preds, err := s.pool.Run(trace, images)
		wall := time.Since(t0)
		if ref == nil {
			ref, refPreds = res, preds
		}
		return wall, err
	}, func() (time.Duration, error) {
		if mir != nil {
			m, err := mirrorServe(s.pool, w.pool, trace, images, newTracer())
			if err != nil {
				return 0, err
			}
			return m.wall, nil
		}
		runtime.ReadMemStats(&before)
		m, err := mirrorServe(s.pool, w.pool, trace, images, tr)
		if err != nil {
			return 0, err
		}
		runtime.ReadMemStats(&after)
		mir = m
		return m.wall, nil
	})
	if err != nil {
		return nil, nil, err
	}
	rep.checkServed(s, "Pool.Run", trace, ref.Stats, refPreds)
	rep.checkServed(s, "mirror", trace, mir.report.Stats, mir.preds)
	same := true
	for i := range refPreds {
		same = same && refPreds[i] == mir.preds[i]
	}
	rep.check("mirror predictions and stats equal Pool.Run", same && mir.report.Stats.Equal(ref.Stats),
		"the mirror loop has drifted from Pool.Run: %s", mir.report.Stats.Diff(ref.Stats))
	rep.mirrorLimits(tr.spans, mirWalls)

	// The short trace untraced and traced, twice each.
	shortWall := func(tr func() *tracer) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			m, err := mirrorServe(s.pool, w.pool, short, images, tr())
			if err != nil {
				return 0, err
			}
			return m.wall, nil
		}
	}
	var overhead walls
	if err := overhead.add(w.effort().pairs, shortWall(func() *tracer { return nil }), shortWall(newTracer)); err != nil {
		return nil, nil, err
	}

	m := rep.Metrics
	for k, v := range probes(w, s.ds, seed) {
		m[k] = v
	}
	loopMetrics(m, tr.spans, "batch", before, after)
	m["loop.mirror_gap_frac"] = value(mirWalls.gap(), "fraction")
	m["loop.trace_overhead_frac"] = value(overhead.gap(), "fraction")

	n := float64(len(trace.Requests))
	sched := named(tr.spans, "serve.simulate")[0]
	m["serve.sched_us_per_req"] = value(sched*1e3/n, "us")
	m["serve.sched_share"] = m["loop.share.serve.simulate"]
	m["serve.assemble_us_per_req"] = value(m["loop.share.serve.assemble"].Value*us(mir.wall)/n, "us")
	fwd := named(tr.spans, "nn.forward")
	sizes := make([]float64, len(mir.report.Batches))
	for i, b := range mir.report.Batches {
		sizes[i] = float64(len(b.Members))
	}
	m["serve.batch_fwd_ms_p50"] = summarize(fwd, 0.5, "ms")
	m["serve.batch_fwd_ms_p90"] = summarize(fwd, 0.9, "ms")
	base, perImage := fitLine(sizes, fwd)
	m["serve.fit_base_us"] = value(base*1e3, "us")
	m["serve.fit_per_image_us"] = value(perImage*1e3, "us")
	m["serve.batches"] = value(float64(mir.report.Stats.Batches), "count")
	m["serve.mean_batch"] = value(mir.report.Stats.MeanBatch(), "count")
	m["serve.alloc_kb_per_req"] = value(float64(after.TotalAlloc-before.TotalAlloc)/1024/n, "KB")
	m["serve.allocs_per_req"] = value(float64(after.Mallocs-before.Mallocs)/n, "count")
	return rep, tr.spans, nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
