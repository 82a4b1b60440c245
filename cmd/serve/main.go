// Command serve runs the dynamic-batching inference tier over a replica
// fleet and prints the exact scheduler statistics: batches and their flush
// causes, the batch-size histogram, queue depth, rejections, and latency
// percentiles on the deterministic virtual clock (1 tick = 1µs). For
// uniform traffic it cross-checks every counter against the closed-form
// model in comm.ExpectedServeStats — the same measured-versus-analytic
// contract the training engine is held to.
//
// # Traffic flags
//
// -trace selects the seeded generator: uniform (fixed inter-arrival gap,
// the deterministic-clock regime the closed form prices exactly), poisson
// (open-loop exponential gaps) or bursty (on/off: bursts of -burst-len
// requests separated by -burst-idle µs of silence). -rate sets the offered
// load in requests/second (quantized to a whole-tick gap), -requests the
// trace length, and -seed the generator seed — every trace is a pure
// function of its flags, so runs are bit-reproducible.
//
// # Batching window and pool flags
//
// -max-batch (K) flushes the forming batch the moment it holds K requests;
// -max-delay (D, µs) flushes when the oldest queued request has waited D —
// the two triggers of every production model server, so no request ever
// waits more than D before its batch is dispatched (property-tested in
// internal/serve). -replicas sets the pool size a flushed batch fans out
// over; -queue-cap bounds the waiting room (0 = unbounded): an arrival
// beyond the cap is rejected with the typed serve.ErrOverloaded and
// counted, making overload admission control rather than an outage.
//
// -svc-base and -svc-per-image price one batch forward pass on the virtual
// clock: S(b) = base + b·per-image µs, the alpha-beta service model the
// latency percentiles and the closed form share.
//
// # Model flags
//
// By default the pool executes every batch through real model replicas
// (forward pass, eval mode) and reports the predicted-class histogram.
// -model / -width / -classes / -image-size choose the micro model (same
// flags and the same models.Micro table as cmd/train), -precision f32|f16
// the GEMM storage precision, and -checkpoint loads a checkpoint file
// produced by checkpoint.Save into every replica — the train→serve artifact
// handoff. -schedule-only skips model execution entirely for pure
// scheduling experiments at large n.
//
// # Worked example: overload
//
// Offer bursts of 64 requests at 100k req/s inside the burst (10µs gaps,
// 10ms idle between bursts) to one replica behind a 32-slot waiting room:
//
//	serve -trace bursty -rate 100000 -requests 4000 -burst-len 64 \
//	      -burst-idle 10000 -max-batch 8 -max-delay 2000 \
//	      -replicas 1 -queue-cap 32
//
// The burst head fills the queue faster than one replica drains it, so the
// tail of each burst is rejected: the stats table shows the shed load in
// the rejected counter (accepted + rejected == offered always holds), the
// queue high-water mark pinned at the cap, and p99 bounded by
// D + dispatch wait + S(K) for the requests that were admitted — overload
// degrades goodput, never latency correctness. Re-run with -replicas 2 to
// watch the same trace admit more: a faster-draining pool rejects less.
//
// # Worked example: closed-form cross-check
//
// Uniform 10k req/s against a 5-wide window:
//
//	serve -trace uniform -rate 10000 -requests 5000 -max-batch 5 \
//	      -max-delay 1000 -replicas 1
//
// prints "closed form: exact" — every counter, bucket and percentile
// matches comm.ExpectedServeStats. Perturb -max-delay by one tick across
// a batch-size boundary and the same line pinpoints the drift.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/tensor"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serve: ")
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run is the whole command: it parses args, serves the trace, and writes
// the report to w. A flag value it cannot use is an error returned before
// anything is printed; -h is flag.ErrHelp, after the flag package printed
// the usage.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		traceKind = fs.String("trace", "uniform", "traffic generator: uniform | poisson | bursty")
		rate      = fs.Float64("rate", 10000, "offered load in requests/second (quantized to whole-tick gaps)")
		requests  = fs.Int("requests", 4000, "trace length in requests")
		seed      = fs.Uint64("seed", 1, "trace generator seed")
		burstLen  = fs.Int("burst-len", 32, "requests per burst (bursty trace)")
		burstIdle = fs.Int64("burst-idle", 10000, "idle µs between bursts (bursty trace)")

		maxBatch = fs.Int("max-batch", 8, "flush a batch at this size (K)")
		maxDelay = fs.Int64("max-delay", 2000, "flush when the oldest request has waited this many µs (D)")
		queueCap = fs.Int("queue-cap", 0, "bounded waiting room; arrivals beyond it are rejected (0 = unbounded)")
		replicas = fs.Int("replicas", 1, "model replica pool size")
		svcBase  = fs.Int64("svc-base", 100, "batch service cost: fixed µs per batch")
		svcPer   = fs.Int64("svc-per-image", 25, "batch service cost: µs per image")

		modelName = fs.String("model", "micro-alexnet", "model: "+strings.Join(models.MicroNames(), " | "))
		width     = fs.Int("width", 8, "model base width")
		classes   = fs.Int("classes", 8, "class count")
		imageSize = fs.Int("image-size", 24, "image height/width")
		precision = fs.String("precision", "f32", "GEMM storage precision: f32 | f16")
		ckptPath  = fs.String("checkpoint", "", "load this checkpoint file into every replica")
		schedOnly = fs.Bool("schedule-only", false, "skip model execution; pure virtual-clock scheduling")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	prec, err := tensor.ParsePrecision(*precision)
	if err != nil {
		return err
	}
	switch {
	case *requests < 0:
		return fmt.Errorf("-requests %d, want >= 0", *requests)
	case *replicas < 1:
		return fmt.Errorf("-replicas %d, want >= 1", *replicas)
	case !(*rate > 0) || math.IsInf(*rate, 1):
		return fmt.Errorf("-rate %v, want a positive finite rate", *rate)
	case *traceKind == "bursty" && *burstLen < 1:
		return fmt.Errorf("-burst-len %d, want >= 1", *burstLen)
	case *maxBatch < 1:
		return fmt.Errorf("-max-batch %d, want >= 1", *maxBatch)
	case *maxDelay < 0:
		return fmt.Errorf("-max-delay %d, want >= 0", *maxDelay)
	case *queueCap < 0:
		return fmt.Errorf("-queue-cap %d, want >= 0", *queueCap)
	case *svcBase < 0:
		return fmt.Errorf("-svc-base %d, want >= 0", *svcBase)
	case *svcPer < 0:
		return fmt.Errorf("-svc-per-image %d, want >= 0", *svcPer)
	case !*schedOnly && *classes < 2:
		return fmt.Errorf("-classes %d, want >= 2 for a pool run", *classes)
	case !*schedOnly && *imageSize < 1:
		return fmt.Errorf("-image-size %d, want >= 1 for a pool run", *imageSize)
	}
	cfg := serve.Config{
		MaxBatch: *maxBatch,
		MaxDelay: serve.Ticks(*maxDelay),
		QueueCap: *queueCap,
		Replicas: *replicas,
		Service:  serve.ServiceModel{Base: serve.Ticks(*svcBase), PerImage: serve.Ticks(*svcPer)},
	}
	gap := serve.Ticks(serve.TicksPerSecond / *rate)
	if gap < 1 {
		gap = 1
	}

	var trace serve.Trace
	switch *traceKind {
	case "uniform":
		trace = serve.UniformTrace(*requests, gap, *classes)
	case "poisson":
		trace = serve.PoissonTrace(*requests, gap, *classes, *seed)
	case "bursty":
		trace = serve.BurstyTrace(*requests, *burstLen, gap, serve.Ticks(*burstIdle), *classes, *seed)
	default:
		return fmt.Errorf("unknown trace %q (want uniform | poisson | bursty)", *traceKind)
	}
	var pool *servedPool
	if !*schedOnly {
		// Build the model, load the checkpoint and render the images
		// before the first line is written: a pool that cannot be built is
		// a refused flag like any other.
		if pool, err = newServedPool(cfg, *modelName, *width, *classes, *imageSize, prec, *ckptPath); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "trace %s: %d requests, offered %.0f req/s (gap %dµs), seed %d\n",
		trace.Name, len(trace.Requests), trace.Rate(), gap, *seed)
	fmt.Fprintf(w, "window K=%d D=%dµs, %d replica(s), queue cap %s, S(b) = %d + %d·b µs\n\n",
		cfg.MaxBatch, cfg.MaxDelay, cfg.Replicas, capLabel(cfg.QueueCap), cfg.Service.Base, cfg.Service.PerImage)

	var rep *serve.Report
	if pool == nil {
		rep, err = serve.Simulate(cfg, trace)
	} else {
		rep, err = pool.run(w, trace)
	}
	if err != nil {
		return err
	}

	fmt.Fprint(w, rep.Stats.String())

	if *traceKind == "uniform" {
		want, err := comm.ExpectedServeStats(cfg, *requests, gap)
		if err != nil {
			fmt.Fprintf(w, "\nclosed form: not applicable (%v)\n", err)
		} else if rep.Stats.Equal(want) {
			fmt.Fprintf(w, "\nclosed form: exact (every counter matches comm.ExpectedServeStats)\n")
		} else {
			fmt.Fprintf(w, "\nclosed form: DRIFT\n%s", rep.Stats.Diff(want))
		}
	}
	return nil
}

// servedPool is a pool run's model side: the replicas with their weights
// and the image set the requests reference.
type servedPool struct {
	pool    *serve.Pool
	images  *tensor.Tensor
	ckpt    string // the checkpoint file loaded, or ""
	step    int64  // its training step
	classes int
	prec    tensor.Precision
}

// newServedPool builds the micro model's replicas at precision prec, loads
// the checkpoint file into every one when ckptPath is set, and renders the
// image set. It writes nothing, so every error comes before the report.
func newServedPool(cfg serve.Config, modelName string, width, classes, imageSize int, prec tensor.Precision, ckptPath string) (*servedPool, error) {
	synCfg := data.SynthConfig{
		Classes: classes, TrainSize: 2, TestSize: max(classes, 8),
		C: 3, H: imageSize, W: imageSize, Noise: 0.3, MaxShift: 2, Seed: 20180901,
	}
	if err := synCfg.Validate(); err != nil {
		return nil, err
	}
	spec, err := models.Micro(modelName, models.MicroConfig{Classes: classes, InH: imageSize, InW: imageSize, Width: width})
	if err != nil {
		return nil, err
	}
	build := spec.Factory()
	factory := func() *nn.Network { return build(1) }

	s := &servedPool{ckpt: ckptPath, classes: classes, prec: prec}
	if ckptPath != "" {
		c, err := checkpoint.Load(ckptPath)
		if err != nil {
			return nil, err
		}
		if s.pool, err = serve.PoolFromCheckpoint(cfg, factory, c); err != nil {
			return nil, err
		}
		s.step = c.Step
	} else if s.pool, err = serve.NewPool(cfg, factory); err != nil {
		return nil, err
	}
	s.pool.SetPrecision(prec)

	synth := data.GenerateSynth(synCfg)
	idx := make([]int, synth.Test.Len())
	for i := range idx {
		idx[i] = i
	}
	s.images, _ = synth.Test.MustGather(idx)
	return s, nil
}

// run executes the trace through the replicas and writes the
// predicted-class histogram to w alongside the schedule.
func (s *servedPool) run(w io.Writer, trace serve.Trace) (*serve.Report, error) {
	if s.ckpt != "" {
		fmt.Fprintf(w, "loaded checkpoint %s (step %d) into %d replica(s)\n\n", s.ckpt, s.step, s.pool.Size())
	}
	// Requests index images modulo the set; rewrite out-of-range ids.
	for i := range trace.Requests {
		trace.Requests[i].Image %= s.images.Dim(0)
	}
	rep, preds, err := s.pool.Run(trace, s.images)
	if err != nil {
		return nil, err
	}
	hist := make([]int, s.classes)
	served := 0
	for _, p := range preds {
		if p >= 0 {
			hist[p]++
			served++
		}
	}
	fmt.Fprintf(w, "executed %d forward(s) over %d image(s) at %s; predicted-class histogram: %v\n\n",
		len(rep.Batches), served, s.prec, hist)
	return rep, nil
}

func capLabel(c int) string {
	if c == 0 {
		return "∞"
	}
	return fmt.Sprintf("%d", c)
}
