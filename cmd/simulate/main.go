// Command simulate prices a training configuration on the paper's hardware
// using the calibrated cluster model:
//
//	simulate -model resnet50 -batch 32768 -nodes 2048 -machine knl -epochs 90
//
// It prints the iteration count, per-iteration compute/communication split,
// sustained throughput and total wall-clock, and can sweep node counts to
// show the scaling curve (-sweep).
//
// -overlap prices communication/computation overlap at bucket granularity:
// the gradient is split into -overlap-buckets buckets, each ready at its
// share of the backward pass (tail of the network first), and the bucket
// allreduces pipeline against the remaining backward — on hierarchical
// clusters with the inter exchange of bucket k overlapping the intra reduce
// of bucket k+1. The report then adds a per-bucket exposed/hidden timeline
// and the hidden/exposed split of the iteration's communication.
//
// -per-node groups the devices into nodes of that size and prices the
// allreduce hierarchically: -intra-algo over the -intra-network fabric
// inside each node, feeding -algo over -network across the node leaders,
// with the per-tier schedule reported separately. A multi-chassis DGX-1
// deployment, for example:
//
//	simulate -model resnet50 -batch 8192 -nodes 32 -machine p100 \
//	         -per-node 8 -intra-network nvlink -intra-algo ring \
//	         -network fdr -algo tree
//
// -evict prices a degrading (preemptible) fleet: each comma-separated
// fraction loses one device at that share of the run's iterations, the
// survivors absorb the work (the engine's elastic membership at cluster
// scale), and the report adds an eviction timeline — per-phase world size,
// iteration cost and throughput — plus the time-to-accuracy cost versus
// the healthy fleet. Losing a quarter and half way through a 64-node run:
//
//	simulate -model resnet50 -batch 32768 -nodes 64 -machine knl \
//	         -epochs 90 -evict 0.25,0.5
//
// -sync-sweep prices the local-SGD tradeoff: a comma-separated list of
// synchronization periods H (e.g. "1,2,4,8"), each priced with the same
// compute model but the allreduce paid only every H-th step
// (cluster.SimulateLocalSGD) — communication volume exactly 1/H of the
// every-step run, throughput climbing toward the compute-bound ceiling.
// The ResNet-50/KNL configuration of the paper's Table 8, swept:
//
//	simulate -model resnet50 -batch 32768 -nodes 2048 -machine knl \
//	         -epochs 90 -sync-sweep 1,2,4,8,16
//
// -autoscale replays a traffic/preemption trace through the autoscaling
// control plane (cluster.SimulateAutoscale) instead of pricing a fixed
// run. The trace is a comma-separated list of "LOADxN" segments — N
// intervals of offered load at LOAD times the starting fleet's healthy
// throughput — with an optional "!P" suffix preempting P devices at the
// segment's first interval. The policy knobs ride alongside:
// -target-util (scale up past this utilization, down when the smaller
// fleet stays under it), -max-backlog (a queue older than this many
// seconds forces a scale-up), -scale-min/-scale-max bounds, -cooldown
// intervals of hysteresis, -interval seconds per trace step and -usd-hour
// per-device pricing. The report shows the world-size timeline, the
// membership churn, the mean reaction time and the dollar bill against
// pinning -scale-max devices. A day-shaped surge with a mid-surge spot
// reclaim on an 8-node fleet allowed to double:
//
//	simulate -model resnet50 -batch 2048 -nodes 8 -machine knl \
//	         -autoscale "0.3x4,1.5x4!1,1.5x4,0.3x8" -scale-max 16
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/models"
)

// sizes are the flags the cluster model takes as given: checked here, in
// one place and before any line of the report, so a bad value is a
// one-line message instead of a panic trace from inside internal/cluster,
// a silent default or a report cut short.
type sizes struct {
	nodes, batch, epochs, dataset int
	perNode, overlapBuckets       int
	sweep                         bool
	evict, syncSweep, autoscale   string // as given
	scaleMin, scaleMax, cooldown  int
	interval, targetUtil          float64
	maxBacklog, usdHour           float64
}

// segment is one "LOADxN[!P]" piece of -autoscale: n intervals of offered
// load at load times the healthy fleet's throughput, preempt devices lost
// at the first of them.
type segment struct {
	load       float64
	n, preempt int
}

// evictions parses -evict: one run fraction in [0, 1] per lost device.
func (s sizes) evictions() ([]float64, error) {
	if s.evict == "" {
		return nil, nil
	}
	var fracs []float64
	for _, f := range strings.Split(s.evict, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || !(v >= 0 && v <= 1) {
			return nil, fmt.Errorf("bad -evict fraction %q: want numbers in [0,1]", f)
		}
		fracs = append(fracs, v)
	}
	return fracs, nil
}

// periods parses -sync-sweep: one synchronization period H >= 1 per entry.
func (s sizes) periods() ([]int, error) {
	if s.syncSweep == "" {
		return nil, nil
	}
	var hs []int
	for _, f := range strings.Split(s.syncSweep, ",") {
		h, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || h < 1 {
			return nil, fmt.Errorf("bad -sync-sweep period %q: want integers >= 1", f)
		}
		hs = append(hs, h)
	}
	return hs, nil
}

// segments parses -autoscale into its "LOADxN[!P]" segments.
func (s sizes) segments() ([]segment, error) {
	if s.autoscale == "" {
		return nil, nil
	}
	var segs []segment
	for _, seg := range strings.Split(s.autoscale, ",") {
		seg = strings.TrimSpace(seg)
		preempt := 0
		if body, p, ok := strings.Cut(seg, "!"); ok {
			n, err := strconv.Atoi(p)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("bad -autoscale segment %q: preemption count %q", seg, p)
			}
			seg, preempt = body, n
		}
		loadStr, nStr, ok := strings.Cut(seg, "x")
		load, err1 := strconv.ParseFloat(strings.TrimSpace(loadStr), 64)
		n, err2 := strconv.Atoi(strings.TrimSpace(nStr))
		if !ok || err1 != nil || err2 != nil || !(load >= 0) || n < 1 {
			return nil, fmt.Errorf("bad -autoscale segment %q: want \"LOADxN[!P]\"", seg)
		}
		segs = append(segs, segment{load, n, preempt})
	}
	return segs, nil
}

func (s sizes) check() error {
	fracs, err := s.evictions()
	if err != nil {
		return err
	}
	if _, err := s.periods(); err != nil {
		return err
	}
	if _, err := s.segments(); err != nil {
		return err
	}
	if s.nodes > 0 && len(fracs) >= s.nodes {
		return fmt.Errorf("-evict loses %d devices, fleet has %d", len(fracs), s.nodes)
	}
	switch {
	case s.nodes <= 0:
		return fmt.Errorf("-nodes %d: want a positive device count", s.nodes)
	case s.batch <= 0:
		return fmt.Errorf("-batch %d: want a positive global batch size", s.batch)
	case s.epochs <= 0:
		return fmt.Errorf("-epochs %d: want a positive epoch budget", s.epochs)
	case s.dataset <= 0:
		return fmt.Errorf("-dataset %d: want a positive dataset size", s.dataset)
	case s.perNode > 0 && s.nodes%s.perNode != 0:
		return fmt.Errorf("-per-node %d does not divide %d devices", s.perNode, s.nodes)
	case s.overlapBuckets < 0:
		return fmt.Errorf("-overlap-buckets %d: want a bucket count, or 0 for the default", s.overlapBuckets)
	case s.sweep && s.evict != "":
		return errors.New("-evict is not supported with -sweep")
	case s.autoscale != "" && !(s.interval > 0):
		return fmt.Errorf("-interval %g: want a positive trace resolution in seconds", s.interval)
	case s.autoscale != "" && s.perNode > 1 && s.scaleMax > s.nodes:
		return fmt.Errorf("-scale-max %d: a hierarchical fleet (-per-node %d) cannot grow past its %d devices", s.scaleMax, s.perNode, s.nodes)
	case s.scaleMin < 0:
		return fmt.Errorf("-scale-min %d: want a fleet floor >= 0", s.scaleMin)
	case s.scaleMax < 0:
		return fmt.Errorf("-scale-max %d: want a fleet ceiling, or 0 for -nodes", s.scaleMax)
	case s.cooldown < 0:
		return fmt.Errorf("-cooldown %d: want a number of intervals >= 0", s.cooldown)
	case !(s.targetUtil >= 0):
		return fmt.Errorf("-target-util %g: want a utilization >= 0 (0 disables the rule)", s.targetUtil)
	case !(s.maxBacklog >= 0):
		return fmt.Errorf("-max-backlog %g: want seconds >= 0 (0 disables the rule)", s.maxBacklog)
	case !(s.usdHour >= 0):
		return fmt.Errorf("-usd-hour %g: want a price >= 0", s.usdHour)
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("simulate: ")
	var usage flagError
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil || errors.Is(err, flag.ErrHelp):
	case errors.As(err, &usage):
		os.Exit(2) // the flag package has printed the error and the usage
	default:
		log.Fatal(err)
	}
}

// flagError is a flag value the flag package refused, which it has already
// reported on stderr with the usage.
type flagError struct{ err error }

func (e flagError) Error() string { return e.err.Error() }

// run is the whole command: it parses args, prices the configuration, and
// writes the report to w. A flag value it cannot use, or a model that does
// not fit the device, is an error returned before anything is printed; -h
// is flag.ErrHelp, after the flag package printed the usage.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	var (
		model      = fs.String("model", "resnet50", "model: "+strings.Join(models.FullSizeNames(), " | "))
		machine    = fs.String("machine", "knl", "device: k20 | m40 | p100 | knl | cpu")
		network    = fs.String("network", "opa", "fabric: fdr | qdr | 10gbe | opa | nvlink (cross-node tier when -per-node is set)")
		algo       = fs.String("algo", "ring", "allreduce: central | tree | ring (cross-node tier when -per-node is set)")
		nodes      = fs.Int("nodes", 2048, "device count")
		batch      = fs.Int("batch", 32768, "global batch size")
		epochs     = fs.Int("epochs", 90, "epoch budget")
		dataset    = fs.Int("dataset", 1280000, "dataset size (ImageNet-1k default)")
		overlap    = fs.Bool("overlap", false, "overlap bucket allreduces with the backward pass (bucket-level pipeline model)")
		obuckets   = fs.Int("overlap-buckets", 0, "gradient buckets for the overlap pipeline (0 = default 16)")
		sweep      = fs.Bool("sweep", false, "sweep node counts 1x..16x and print the scaling curve")
		evict      = fs.String("evict", "", "degrading fleet: comma-separated run fractions, one device lost at each (e.g. \"0.25,0.5\")")
		syncSweep  = fs.String("sync-sweep", "", "local-SGD sweep: comma-separated synchronization periods H (e.g. \"1,2,4,8\"); allreduce paid every H-th step")
		autoscale  = fs.String("autoscale", "", "replay a traffic trace through the autoscaler: \"LOADxN[!P]\" segments, LOAD relative to the healthy fleet (e.g. \"0.3x4,1.5x8!1,0.3x8\")")
		targetUtil = fs.Float64("target-util", 0.8, "autoscaler utilization target (0 disables the utilization rule)")
		maxBacklog = fs.Float64("max-backlog", 0, "autoscaler backlog SLO in seconds (0 disables the queue-depth rule)")
		scaleMin   = fs.Int("scale-min", 1, "autoscaler fleet floor")
		scaleMax   = fs.Int("scale-max", 0, "autoscaler fleet ceiling (0 = -nodes; flat clusters may exceed -nodes)")
		cooldown   = fs.Int("cooldown", 0, "autoscaler intervals of hysteresis after each scale event")
		interval   = fs.Float64("interval", 60, "autoscaler trace resolution in seconds")
		usdHour    = fs.Float64("usd-hour", 3, "autoscaler per-device-hour price for the cost accounting")
		perNode    = fs.Int("per-node", 0, "devices per node for two-tier hierarchical pricing (0 = flat; must divide -nodes)")
		intraNet   = fs.String("intra-network", "nvlink", "within-node fabric when -per-node is set: fdr | qdr | 10gbe | opa | nvlink")
		intraAlg   = fs.String("intra-algo", "ring", "within-node allreduce when -per-node is set: central | tree | ring")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return flagError{err}
	}
	sz := sizes{
		nodes: *nodes, batch: *batch, epochs: *epochs, dataset: *dataset,
		perNode: *perNode, overlapBuckets: *obuckets, sweep: *sweep,
		evict: *evict, syncSweep: *syncSweep, autoscale: *autoscale,
		scaleMin: *scaleMin, scaleMax: *scaleMax, cooldown: *cooldown,
		interval: *interval, targetUtil: *targetUtil, maxBacklog: *maxBacklog, usdHour: *usdHour,
	}
	if err := sz.check(); err != nil {
		return err
	}
	spec, err := models.FullSize(*model)
	if err != nil {
		return err
	}
	m, err := parseMachine(*machine)
	if err != nil {
		return err
	}
	base := cluster.Cluster{Machine: m, Overlap: *overlap, OverlapBuckets: *obuckets}
	if base.Network, err = parseNetwork(*network); err != nil {
		return err
	}
	if base.Algo, err = dist.ParseAlgorithm(*algo); err != nil {
		return err
	}
	if *perNode > 0 { // divides every fleet: checked for -nodes, and -sweep only doubles it
		base.PerNode = *perNode
		if base.IntraNetwork, err = parseNetwork(*intraNet); err != nil {
			return err
		}
		if base.IntraAlgo, err = dist.ParseAlgorithm(*intraAlg); err != nil {
			return err
		}
	}
	net, a := base.Network, base.Algo
	buildCluster := func(n int) cluster.Cluster {
		c := base
		c.Count = n
		return c
	}
	simulate := func(n int) cluster.Estimate {
		return cluster.Simulate(buildCluster(n), spec, *batch, *epochs, *dataset)
	}

	if *sweep {
		fmt.Fprintf(w, "%-8s %-12s %-12s %-12s %-12s %-14s %-10s\n", "nodes", "comp/iter", "comm/iter", "total", "img/s", "msgs/iter", "rounds")
		for n := *nodes; n <= 16**nodes && n <= *batch; n *= 2 {
			e := simulate(n)
			if e.OOM {
				fmt.Fprintf(w, "%-8d OOM\n", n)
				continue
			}
			fmt.Fprintf(w, "%-8d %-12.4fs %-12.4fs %-12s %-12.0f %-14d %-10d\n",
				n, e.CompSec, e.CommSec, e.Duration().Round(1e9), e.ImagesSec, e.Comm.Messages, e.Comm.Steps)
		}
		return nil
	}

	e := simulate(*nodes)
	if e.OOM {
		return fmt.Errorf("%s does not fit on %s even at batch 1", spec.Name, m.Name)
	}
	fmt.Fprintf(w, "model:       %s (|W|=%.1fMB, %.2f GFLOPs/image)\n", spec.Name, float64(spec.WeightBytes())/1e6, float64(spec.FLOPsPerImage())/1e9)
	if h, ok := e.Cluster.Hierarchy(); ok {
		fmt.Fprintf(w, "cluster:     %d x %s as %d nodes of %d: %s %s intra, %s %s inter\n",
			*nodes, m.Name, h.Nodes, h.PerNode, e.Cluster.IntraNetwork.Name, h.Intra, net.Name, h.Inter)
	} else {
		fmt.Fprintf(w, "cluster:     %d x %s over %s (%s allreduce)\n", *nodes, m.Name, net.Name, a)
	}
	fmt.Fprintf(w, "batch:       %d global, %d/device (compute micro-batch %d)\n", *batch, e.LocalBatch, e.MicroBatch)
	fmt.Fprintf(w, "iterations:  %d (%d epochs of %d images)\n", e.Iterations, *epochs, *dataset)
	fmt.Fprintf(w, "iteration:   %.4fs compute + %.4fs communication\n", e.CompSec, e.CommSec)
	fmt.Fprintf(w, "allreduce:   %d messages, %.1f MB aggregate, %d latency rounds per iteration (%s)\n",
		e.Comm.Messages, float64(e.Comm.Bytes)/1e6, e.Comm.Steps, a)
	if _, ok := e.Cluster.Hierarchy(); ok {
		fmt.Fprintf(w, "  intra tier: %d messages, %.1f MB, %d rounds (concurrent across nodes)\n",
			e.TierComm.Intra.Messages, float64(e.TierComm.Intra.Bytes)/1e6, e.TierComm.Intra.Steps)
		fmt.Fprintf(w, "  inter tier: %d messages, %.1f MB, %d rounds (node leaders)\n",
			e.TierComm.Inter.Messages, float64(e.TierComm.Inter.Bytes)/1e6, e.TierComm.Inter.Steps)
	}
	if *overlap {
		fmt.Fprintf(w, "overlap:     backward window %.4fs, comm %.4fs hidden + %.4fs exposed over %d buckets\n",
			e.BackwardSec, e.HiddenCommSec, e.CommSec, len(e.Buckets))
		fmt.Fprintf(w, "  %-8s %-10s %-10s %-10s %-10s %s\n", "bucket", "MB", "ready", "start", "done", "exposure")
		for j := len(e.Buckets) - 1; j >= 0; j-- { // pipeline order: tail of the gradient first
			b := e.Buckets[j]
			status := "hidden"
			if !b.Hidden {
				status = fmt.Sprintf("exposed %.4fs", b.DoneSec-e.BackwardSec)
			}
			fmt.Fprintf(w, "  %-8d %-10.2f %-10.4f %-10.4f %-10.4f %s\n",
				j, float64(b.Bytes)/1e6, b.ReadySec, b.StartSec, b.DoneSec, status)
		}
	}
	fmt.Fprintf(w, "throughput:  %.0f images/sec\n", e.ImagesSec)
	fmt.Fprintf(w, "total:       %s\n", e.Duration().Round(1e9))

	if *evict != "" {
		fracs, _ := sz.evictions() // checked above
		el := cluster.SimulateElastic(buildCluster(*nodes), spec, *batch, *epochs, *dataset, fracs)
		fmt.Fprintf(w, "\neviction timeline (%d devices lost; fixed %d-epoch budget, serial communication):\n", len(fracs), *epochs)
		fmt.Fprintf(w, "  %-8s %-12s %-12s %-12s %-12s\n", "world", "iterations", "comp/iter", "comm/iter", "img/s")
		for _, p := range el.Phases {
			fmt.Fprintf(w, "  %-8d %-12d %-12s %-12s %-12.0f\n",
				p.Devices, p.Iterations,
				fmt.Sprintf("%.4fs", p.CompSec), fmt.Sprintf("%.4fs", p.CommSec), p.ImagesSec)
		}
		fmt.Fprintf(w, "  healthy fleet:  %s (%.0f img/s)\n", el.Baseline.Duration().Round(1e9), el.Baseline.ImagesSec)
		fmt.Fprintf(w, "  degraded fleet: %s (%.0f img/s avg), time-to-accuracy +%.1f%%\n",
			el.Duration().Round(1e9), el.ImagesSec, el.SlowdownPct())
	}

	if *syncSweep != "" {
		hs, _ := sz.periods() // checked above
		curve := cluster.LocalSGDCurve(buildCluster(*nodes), spec, *batch, *epochs, *dataset, hs)
		fmt.Fprintf(w, "\nlocal-SGD sweep (weight average every H steps; comm volume scales as 1/H):\n")
		fmt.Fprintf(w, "  %-6s %-12s %-12s %-12s %-12s %-10s %-10s\n",
			"H", "rounds", "step", "img/s", "total", "speedup", "comm GB")
		for _, p := range curve {
			fmt.Fprintf(w, "  %-6d %-12d %-12s %-12.0f %-12s %-10s %-10.1f\n",
				p.SyncEvery, p.SyncRounds,
				fmt.Sprintf("%.4fs", p.StepSec), p.ImagesSec,
				p.Duration().Round(1e9), fmt.Sprintf("%.2fx", p.Speedup),
				float64(p.Comm.Bytes)/(1<<30))
		}
	}

	if *autoscale != "" {
		segs, _ := sz.segments() // checked above
		var trace []cluster.TrafficPoint
		for _, seg := range segs {
			for i := 0; i < seg.n; i++ {
				tp := cluster.TrafficPoint{OfferedImagesSec: seg.load * e.ImagesSec}
				if i == 0 {
					tp.Preemptions = seg.preempt
				}
				trace = append(trace, tp)
			}
		}
		pol := cluster.AutoscalePolicy{
			Min: *scaleMin, Max: *scaleMax,
			TargetUtilization: *targetUtil, MaxBacklogSec: *maxBacklog,
			CooldownIntervals: *cooldown, USDPerDeviceHour: *usdHour,
		}
		est := cluster.SimulateAutoscale(buildCluster(*nodes), spec, *batch, *interval, trace, pol)
		fmt.Fprintf(w, "\nautoscale replay (%d intervals of %.0fs; load relative to the healthy %.0f img/s):\n",
			len(trace), *interval, e.ImagesSec)
		fmt.Fprintf(w, "  world timeline: %s\n", est.Timeline)
		fmt.Fprintf(w, "  joins=%d evictions=%d (preempted %d) reaction=%.1f intervals final_backlog=%.0fs\n",
			est.Joins, est.Evictions, est.Preempted, est.ReactionIntervals, est.FinalBacklogSec)
		fmt.Fprintf(w, "  cost: $%.2f elastic vs $%.2f static-max (%.0f%% saved)\n",
			est.TotalUSD, est.StaticUSD, est.SavingsPct())
	}
	return nil
}

// parseMachine returns the device named by -machine.
func parseMachine(name string) (cluster.Machine, error) {
	switch name {
	case "k20":
		return cluster.TeslaK20, nil
	case "m40":
		return cluster.TeslaM40, nil
	case "p100":
		return cluster.TeslaP100, nil
	case "knl":
		return cluster.KNL7250, nil
	case "cpu":
		return cluster.Xeon8160, nil
	}
	return cluster.Machine{}, fmt.Errorf("unknown machine %q", name)
}

// parseNetwork returns the fabric named by -network or -intra-network.
func parseNetwork(name string) (comm.Network, error) {
	switch name {
	case "fdr":
		return comm.MellanoxFDR, nil
	case "qdr":
		return comm.IntelQDR, nil
	case "10gbe":
		return comm.Intel10GbE, nil
	case "opa":
		return cluster.OmniPath, nil
	case "nvlink":
		return cluster.NVLinkHybrid, nil
	}
	return comm.Network{}, fmt.Errorf("unknown network %q", name)
}
