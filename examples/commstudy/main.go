// Commstudy demonstrates the communication analysis of the paper (Tables
// 11-12, Figures 8-10) with both the analytic model and the repository's
// real in-process allreduce engine, cross-checking one against the other.
//
//	go run ./examples/commstudy
package main

import (
	"fmt"
	"io"
	"math"
	"os"

	"repro"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
)

// seq returns [0, 1, ..., n).
func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// randBufs returns `workers` seeded gradient-sized buffers of n coordinates.
func randBufs(seed uint64, workers int, n int64) [][]float32 {
	r := rng.New(seed)
	bufs := make([][]float32, workers)
	for i := range bufs {
		bufs[i] = make([]float32, n)
		for j := range bufs[i] {
			bufs[i][j] = r.NormFloat32()
		}
	}
	return bufs
}

func main() { run(os.Stdout) }

// run writes the study to w; every number in it is seeded or closed-form, so
// the output is reproducible byte for byte (testdata/stdout.golden).
func run(w io.Writer) {
	resnet := repro.ResNet50Spec()
	const imagenet, epochs = 1280000, 90

	fmt.Fprintln(w, "== Figures 8-10: larger batches communicate less (fixed epochs) ==")
	fmt.Fprintf(w, "%-8s %-12s %-16s %-14s\n", "batch", "iterations", "messages(P=512)", "volume")
	for b := 512; b <= 65536; b *= 4 {
		iters := comm.Iterations(epochs, imagenet, b)
		msgs := comm.TotalMessages(dist.Tree, 512, epochs, imagenet, b)
		vol := comm.TotalVolumeBytes(resnet.WeightBytes(), epochs, imagenet, b)
		fmt.Fprintf(w, "%-8d %-12d %-16d %.2f TB\n", b, iters, msgs, float64(vol)/1e12)
	}

	fmt.Fprintln(w, "\n== Table 11: one ResNet-50 gradient allreduce (P=512) per fabric ==")
	for _, n := range comm.Table11() {
		t := n.AllreduceTime(dist.Ring, 512, resnet.WeightBytes())
		fmt.Fprintf(w, "  %-28s alpha=%.1e beta=%.1e  ring allreduce: %.1f ms\n", n.Name, n.Alpha, n.Beta, 1e3*t)
	}

	fmt.Fprintln(w, "\n== Real allreduce vs analytic message counts ==")
	// Run the actual in-process reduction engine on a gradient-sized buffer
	// and compare its observed counters with the closed-form model.
	const workers = 8
	weights := models.MicroAlexNetSpec(models.MicroConfig{Classes: 8, InH: 16, Width: 8}).ParamCount()
	for _, algo := range []dist.Algorithm{dist.Central, dist.Tree, dist.Ring} {
		bufs := randBufs(1, workers, weights)
		var stats dist.CommStats
		dist.Reduce(algo, bufs, &stats)
		dist.Broadcast(algo, bufs, &stats)
		model := comm.ExpectedStats(algo, workers, int64(4*weights))
		fmt.Fprintf(w, "  %-8s observed %4d messages %6.2f MB %3d rounds; model says %4d messages %6.2f MB %3d rounds\n",
			algo, stats.Messages, float64(stats.Bytes)/1e6, stats.Steps,
			model.Messages, float64(model.Bytes)/1e6, model.Steps)
	}

	fmt.Fprintln(w, "\n== Engine: one real training step per algorithm (P=4, micro-AlexNet) ==")
	// Drive the full synchronous engine — shard forward/backward, bucketed
	// gradient allreduce, weight broadcast — and report the per-step
	// counters next to the analytic schedule and its alpha-beta price.
	ds := repro.GenerateSynth(data.SynthConfig{
		Classes: 8, TrainSize: 256, TestSize: 64, C: 3, H: 16, W: 16,
		Noise: 0.3, MaxShift: 2, Flip: true, Seed: 11,
	})
	x, labels := ds.Train.MustGather(seq(64))
	factory := repro.MicroAlexNetFactory(models.MicroConfig{Classes: 8, InH: 16, Width: 8})
	// engine builds seeded replicas and one engine over them on topology h
	// (a flat world is dist.Flat, so every section configures a topology).
	nparams := factory(1).NumParams()
	engine := func(h dist.Hierarchy, cfg dist.Config) (*dist.Engine, []*nn.Network) {
		replicas := make([]*nn.Network, h.Workers())
		for i := range replicas {
			replicas[i] = factory(uint64(i) + 1)
		}
		cfg.Topology = &h
		return dist.NewEngine(cfg, replicas), replicas
	}
	step := func(e *dist.Engine) {
		if _, err := e.ComputeGradient(x, labels); err != nil {
			panic(err)
		}
		if err := e.BroadcastWeights(); err != nil {
			panic(err)
		}
	}
	fmt.Fprintf(w, "  %-8s %-28s %-28s %s\n", "algo", "grad reduce (msgs/MB/rounds)", "weight bcast (msgs/MB/rounds)", "FDR time/step")
	for _, algo := range []dist.Algorithm{dist.Central, dist.Tree, dist.Ring} {
		e, _ := engine(dist.Flat(algo, 4), dist.Config{})
		if _, err := e.ComputeGradient(x, labels); err != nil {
			panic(err)
		}
		reduce := e.StepStats()
		if err := e.BroadcastWeights(); err != nil {
			panic(err)
		}
		total := e.StepStats()
		bcast := total
		bcast.Messages -= reduce.Messages
		bcast.Bytes -= reduce.Bytes
		bcast.Steps -= reduce.Steps
		fmt.Fprintf(w, "  %-8s %4d / %6.2f / %2d          %4d / %6.2f / %2d          %.2f ms\n",
			algo, reduce.Messages, float64(reduce.Bytes)/1e6, reduce.Steps,
			bcast.Messages, float64(bcast.Bytes)/1e6, bcast.Steps,
			1e3*comm.MellanoxFDR.TimeFromStats(total))
		e.Close()
	}

	// The at-scale pricing below compares two layouts of the same 64 P100s on
	// the same two fabrics: one flat ring, and eight ring nodes of eight.
	ringPod := dist.Hierarchy{Nodes: 8, PerNode: 8, Intra: dist.Ring, Inter: dist.Ring}

	fmt.Fprintln(w, "\n== Hierarchical allreduce: composing fabrics (8 nodes x 8 workers) ==")
	// The paper's fastest clusters reduce inside the node on a fast local
	// fabric before touching the cross-node links. Run the composed
	// collective for real, cross-check the per-tier counters against the
	// closed forms, and price flat-vs-hierarchical on NVLink + FDR.
	{
		h := dist.NewHierarchy(8, 8)
		bufs := randBufs(2, h.Workers(), weights)
		var tiers dist.TierStats
		dist.HierReduce(h, bufs, &tiers)
		dist.HierBroadcast(h, bufs, &tiers)
		model := comm.ExpectedTierStats(h, nil, int64(4*weights))
		fmt.Fprintf(w, "  %-12s observed %5d messages %6.2f MB %3d rounds; model says %5d messages %6.2f MB %3d rounds\n",
			"intra tier", tiers.Intra.Messages, float64(tiers.Intra.Bytes)/1e6, tiers.Intra.Steps,
			model.Intra.Messages, float64(model.Intra.Bytes)/1e6, model.Intra.Steps)
		fmt.Fprintf(w, "  %-12s observed %5d messages %6.2f MB %3d rounds; model says %5d messages %6.2f MB %3d rounds\n",
			"inter tier", tiers.Inter.Messages, float64(tiers.Inter.Bytes)/1e6, tiers.Inter.Steps,
			model.Inter.Messages, float64(model.Inter.Bytes)/1e6, model.Inter.Steps)
		payload := resnet.WeightBytes()
		flat := comm.AllreduceTime(cluster.NVLinkHybrid, comm.MellanoxFDR, dist.Flat(dist.Ring, 64), nil, payload)
		hier := comm.AllreduceTime(cluster.NVLinkHybrid, comm.MellanoxFDR, ringPod, nil, payload)
		fmt.Fprintf(w, "  one ResNet-50 allreduce over 64 P100s: flat FDR ring %.1f ms, NVLink-intra + FDR-inter ring %.1f ms\n",
			1e3*flat, 1e3*hier)
	}

	fmt.Fprintln(w, "\n== Overlap: bucket reductions firing inside the backward pass ==")
	// With Config.Overlap the engine reduces each gradient bucket the
	// moment its layers' gradients are final on every shard — while earlier
	// layers are still back-propagating — instead of after the full
	// backward. Values are bit-identical; the schedule splits into hidden
	// vs exposed, cross-checked against comm's closed form.
	{
		var paramElems []int
		for _, p := range factory(1).Params() {
			paramElems = append(paramElems, p.Numel())
		}
		const buckets = 6
		bucketElems := (nparams + buckets - 1) / buckets
		ring4 := dist.Flat(dist.Ring, 4)
		e, _ := engine(ring4, dist.Config{BucketElems: bucketElems, Overlap: true})
		step(e)
		ov := e.StepOverlapStats()
		model := comm.ExpectedOverlapStats(ring4, nil, paramElems, bucketElems)
		e.Close()
		fmt.Fprintf(w, "  measured: %d rounds / %.2f KB hidden inside the backward, %d rounds / %.2f KB exposed (%.0f%% of bytes hidden)\n",
			ov.HiddenRounds, float64(ov.HiddenBytes)/1e3, ov.ExposedRounds, float64(ov.ExposedBytes)/1e3, 100*ov.HiddenByteFrac())
		fmt.Fprintf(w, "  model:    comm.ExpectedOverlapStats matches: %v\n", ov == model)

		// Price the same idea at ResNet-50 scale: 16 buckets pipelined
		// against a 150 ms backward window, flat FDR ring vs the two-tier
		// NVLink/FDR composition with cross-tier bucket pipelining.
		const backward = 0.150
		bb := comm.EqualBuckets(resnet.WeightBytes(), 16)
		price := func(h dist.Hierarchy) (serial, exposed float64) {
			return 1e3 * comm.AllreduceTime(cluster.NVLinkHybrid, comm.MellanoxFDR, h, nil, resnet.WeightBytes()),
				1e3 * comm.OverlappedAllreduceTime(cluster.NVLinkHybrid, comm.MellanoxFDR, h, nil, bb, backward)
		}
		serial, exposed := price(dist.Flat(dist.Ring, 64))
		fmt.Fprintf(w, "  ResNet-50 over 64 P100s, 150ms backward window: flat FDR ring %.1fms serial -> %.1fms exposed;\n", serial, exposed)
		serial, exposed = price(ringPod)
		fmt.Fprintf(w, "  NVLink-intra + FDR-inter %.1fms serial -> %.1fms exposed (inter exchange of bucket k rides the intra reduce of bucket k+1)\n", serial, exposed)
	}

	fmt.Fprintln(w, "\n== Elastic membership: evicting a dead worker mid-run ==")
	// Preemptible fleets lose nodes for good. With Config.Elastic the
	// engine evicts a worker whose recovery keeps failing, rebalances the
	// shard spans over the survivors, re-broadcasts the weights, and keeps
	// training at P-1 — with every post-eviction step's schedule matching
	// the closed form at the surviving world (ExpectedTierStats).
	{
		ring4 := dist.Flat(dist.Ring, 4)
		e, _ := engine(ring4, dist.Config{
			Faults:  &dist.FaultPlan{Dead: map[int]int64{3: 2}}, // worker 3 reclaimed at step 2
			Elastic: &dist.Elastic{EvictAfter: 2},               // declared dead after 2 missed recoveries
		})
		fmt.Fprintf(w, "  %-6s %-7s %-9s %-9s %-9s %s\n", "step", "world", "rounds", "retries", "bytes", "event")
		for i := 0; i < 6; i++ {
			before := e.LiveWorkers()
			step(e)
			s := e.StepStats()
			event := ""
			switch {
			case e.LiveWorkers() < before:
				event = "worker 3 evicted; shards rebalanced, weights re-broadcast"
			case s.Retries > 0:
				event = "worker 3 unreachable: survivor recomputed its shards"
			}
			fmt.Fprintf(w, "  %-6d %-7d %-9d %-9d %-9d %s\n", i, before, s.Steps, s.Retries, s.Bytes, event)
		}
		m, world := e.Membership(), e.LiveWorkers()
		model := comm.ExpectedTierStats(ring4, ring4.FrontFilled(world), 4*int64(nparams))
		fmt.Fprintf(w, "  timeline %s: %d eviction, %d shard(s) rebalanced, %d resync bytes\n",
			m.Timeline(), m.Evictions, m.RebalancedShards, m.RebalancedBytes)
		fmt.Fprintf(w, "  post-eviction step == comm.ExpectedTierStats(ring, world=%d): %v\n",
			world, e.StepTierStats() == model)
		e.Close()
	}

	fmt.Fprintln(w, "\n== Hot-loop kernels: canonical-f64 vs pairwise-f32 reduction ==")
	// The reduction arithmetic is the one policy knob the reproducibility
	// contract leaves open (dist.Config.Reduction). Run both over the same
	// buffers: values differ only by rounding, every topology stays
	// bit-identical under either, and the fixed-tree pairwise-f32 kernel
	// is the faster sum (see the HotLoop study in EXPERIMENTS.md and
	// BenchmarkReduction for the measured throughputs).
	{
		const workers = 8
		results := map[dist.Reduction][]float32{}
		for _, policy := range []dist.Reduction{dist.CanonicalF64, dist.PairwiseF32} {
			var ref []float32
			for _, algo := range []dist.Algorithm{dist.Central, dist.Tree, dist.Ring} {
				bufs := randBufs(3, workers, weights)
				dist.ReduceWith(algo, policy, bufs, nil)
				if ref == nil {
					ref = bufs[0]
					continue
				}
				for i := range ref {
					if ref[i] != bufs[0][i] {
						panic(fmt.Sprintf("%v: %v reduction differs across algorithms", policy, algo))
					}
				}
			}
			results[policy] = ref
			fmt.Fprintf(w, "  %-14s bit-identical across central/tree/ring: true\n", policy)
		}
		var maxDiff float64
		canon, pair := results[dist.CanonicalF64], results[dist.PairwiseF32]
		for i := range canon {
			if d := math.Abs(float64(canon[i] - pair[i])); d > maxDiff {
				maxDiff = d
			}
		}
		fmt.Fprintf(w, "  max |canonical - pairwise| over %d coords: %.2e (pure rounding; pairwise error is O(log P)*eps)\n",
			weights, maxDiff)
	}

	fmt.Fprintln(w, "\n== Local SGD: trading communication for computation ==")
	// With Config.SyncEvery = H every worker steps its own optimizer on its
	// own shard gradients and the fleet averages weights only every H-th
	// step — the collective volume scales by exactly 1/H. Drive the real
	// engine for 8 steps at H=4 and hold its counters against the closed
	// form, then price the H-sweep at ResNet-50 scale.
	{
		const workers, steps, syncEvery = 4, 8, 4
		e, replicas := engine(dist.Flat(dist.Ring, workers), dist.Config{SyncEvery: syncEvery})
		steppers := make([]dist.Stepper, workers)
		for i, r := range replicas {
			steppers[i] = opt.NewSGD(r.Params(), opt.SGDConfig{Momentum: 0.9})
		}
		e.SetLocalSteppers(steppers)
		init := e.Stats() // the construction broadcast, paid once
		for i := 0; i < steps; i++ {
			if _, err := e.LocalStep(x, labels, 0.05); err != nil {
				panic(err)
			}
		}
		measured := e.Stats()
		measured.Messages -= init.Messages
		measured.Bytes -= init.Bytes
		measured.Steps -= init.Steps
		model := comm.ExpectedLocalSGDStats(dist.Ring, workers, syncEvery, steps, nparams, 0, nil)
		lsgd := e.LocalSGD()
		e.Close()
		fmt.Fprintf(w, "  %d local steps at H=%d: %d sync rounds, %d messages / %.2f MB on the wire\n",
			lsgd.LocalSteps, syncEvery, lsgd.SyncRounds, measured.Messages, float64(measured.Bytes)/1e6)
		fmt.Fprintf(w, "  comm.ExpectedLocalSGDStats matches counter-for-counter: %v (volume = 1/%d of every-step)\n",
			measured == model, syncEvery)

		// The tradeoff at scale: ResNet-50 on 64 KNL nodes, batch 2048.
		c := cluster.KNLCluster(64)
		fmt.Fprintf(w, "  ResNet-50 on 64x KNL, B=2048 (1 epoch): H=1..8 sweep\n")
		for _, est := range cluster.LocalSGDCurve(c, resnet, 2048, 1, imagenet, []int{1, 2, 4, 8}) {
			fmt.Fprintf(w, "    H=%-3d %7.0f img/s  %.2fx  comm %7.1f GB\n",
				est.SyncEvery, est.ImagesSec, est.Speedup, float64(est.Comm.Bytes)/(1<<30))
		}
	}

	fmt.Fprintln(w, "\n== Table 12: energy — data movement dwarfs arithmetic ==")
	for _, op := range comm.Table12() {
		fmt.Fprintf(w, "  %-26s %-13s %6.1f pJ\n", op.Name, op.Kind, op.PJ)
	}
	flops := int64(256) * resnet.TrainFLOPsPerImage()
	dram := comm.DRAMAccessesPerIteration(resnet.ParamCount())
	fmt.Fprintf(w, "\n  one B=256 ResNet-50 iteration: compute %.1f J, weight DRAM traffic %.2f J\n",
		comm.EnergyEstimate(flops, 0), comm.EnergyEstimate(0, dram))
	fmt.Fprintln(w, "  -> fewer iterations (larger batches) save communication energy, not flops")
}
