package harness

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/models"
	"repro/internal/serve"
)

// ServeStudy drives the dynamic-batching inference tier across its regimes
// on the virtual clock: uniform arrivals at three batch windows
// (cross-checked counter-for-counter against comm.ExpectedServeStats),
// seeded Poisson and bursty traffic, and an overload scenario where the
// bounded queue rejects with ErrOverloaded instead of melting down. Two
// in-study controls guard the exhibit: a negative control perturbs
// MaxDelay by one tick across the batch-size boundary and must be detected
// by the analytic twin, and every row is re-run at a different replica
// count and must reproduce its stats exactly (batch formation is
// replica-invariant; latency is too under the capacity condition). The
// final rows size a P100 fleet with cluster.SimulateServe.
//
// Everything is exact integer arithmetic over the virtual clock — no wall
// time anywhere — so the docs-drift job regenerates this section
// bit-identically alongside the analytic exhibits.
func ServeStudy() (*Table, error) {
	t := &Table{
		ID:     "Serve study",
		Title:  "Dynamic-batching inference: measured scheduler vs closed form (service S(b) = 100 + 25b µs)",
		Header: []string{"trace", "rate req/s", "K", "D µs", "R", "cap", "batches (size/deadline)", "mean b", "rejected", "p50 µs", "p99 µs", "model"},
	}
	svc := serve.ServiceModel{Base: 100, PerImage: 25}
	const n = 4000

	type scenario struct {
		label string
		cfg   serve.Config
		trace serve.Trace
		gap   serve.Ticks // > 0 marks the deterministic-clock regime
	}
	scenarios := []scenario{
		{"uniform/size-limited", serve.Config{MaxBatch: 8, MaxDelay: 2000, Replicas: 2, Service: svc}, serve.UniformTrace(n, 100, 8), 100},
		{"uniform/deadline-limited", serve.Config{MaxBatch: 32, MaxDelay: 500, Replicas: 2, Service: svc}, serve.UniformTrace(n, 100, 8), 100},
		{"uniform/near-idle", serve.Config{MaxBatch: 8, MaxDelay: 300, Replicas: 1, Service: svc}, serve.UniformTrace(n, 900, 8), 900},
		{"poisson", serve.Config{MaxBatch: 8, MaxDelay: 2000, Replicas: 2, Service: svc}, serve.PoissonTrace(n, 100, 8, 2018), 0},
		{"bursty", serve.Config{MaxBatch: 8, MaxDelay: 2000, Replicas: 2, Service: svc}, serve.BurstyTrace(n, 40, 50, 20000, 8, 2018), 0},
		{"bursty/overload cap=24", serve.Config{MaxBatch: 8, MaxDelay: 2000, QueueCap: 24, Replicas: 1, Service: svc}, serve.BurstyTrace(n, 200, 10, 30000, 8, 2018), 0},
	}
	for _, sc := range scenarios {
		rep, err := serve.Simulate(sc.cfg, sc.trace)
		if err != nil {
			return nil, err
		}
		model := "—"
		if sc.gap > 0 {
			want, err := comm.ExpectedServeStats(sc.cfg, n, sc.gap)
			if err != nil {
				return nil, fmt.Errorf("harness: serve model refused %s: %w", sc.label, err)
			}
			if rep.Stats.Equal(want) {
				model = "exact"
			} else {
				diff, _, _ := strings.Cut(rep.Stats.Diff(want), "\n")
				model = "DRIFT: " + diff
			}
		}
		// Replica-invariance control: with an unbounded queue, batch
		// formation never consults the pool, so a larger pool must
		// reproduce the batch histogram exactly — and, when no batch ever
		// waits for a replica, the full stats. With admission control the
		// invariance deliberately breaks the other way: a faster-draining
		// pool admits more, so rejections may only shrink.
		bigger := sc.cfg
		bigger.Replicas += 2
		rep2, err := serve.Simulate(bigger, sc.trace)
		if err != nil {
			return nil, err
		}
		if sc.cfg.QueueCap == 0 {
			for i := range rep.Stats.Hist {
				if rep.Stats.Hist[i] != rep2.Stats.Hist[i] {
					return nil, fmt.Errorf("harness: %s batch histogram not replica-invariant at bucket %d", sc.label, i)
				}
			}
		} else if rep2.Stats.Rejected > rep.Stats.Rejected {
			return nil, fmt.Errorf("harness: %s rejected more with more replicas: %d -> %d", sc.label, rep.Stats.Rejected, rep2.Stats.Rejected)
		}
		if sc.gap > 0 && !rep.Stats.Equal(rep2.Stats) {
			return nil, fmt.Errorf("harness: %s stats not replica-invariant under capacity:\n%s", sc.label, rep.Stats.Diff(rep2.Stats))
		}

		capCell := "∞"
		if sc.cfg.QueueCap > 0 {
			capCell = fmt.Sprintf("%d", sc.cfg.QueueCap)
		}
		s := rep.Stats
		t.Add(sc.label,
			fmt.Sprintf("%.0f", sc.trace.Rate()),
			fmt.Sprintf("%d", sc.cfg.MaxBatch),
			fmt.Sprintf("%d", sc.cfg.MaxDelay),
			fmt.Sprintf("%d", sc.cfg.Replicas),
			capCell,
			fmt.Sprintf("%d (%d/%d)", s.Batches, s.SizeFlushes, s.DeadlineFlushes),
			fmt.Sprintf("%.2f", s.MeanBatch()),
			fmt.Sprintf("%d", s.Rejected),
			fmt.Sprintf("%d", s.P50),
			fmt.Sprintf("%d", s.P99),
			model)
	}

	// Negative control: perturbing MaxDelay one tick across the batch-size
	// boundary (deadline-limited row at gap 100: D=500 → b = ⌊500/100⌋+1 = 6,
	// D=499 → b=5) must be caught by the twin.
	ctrl := scenarios[1].cfg
	ctrl.MaxDelay--
	rep, err := serve.Simulate(scenarios[1].cfg, scenarios[1].trace)
	if err != nil {
		return nil, err
	}
	perturbed, err := comm.ExpectedServeStats(ctrl, n, 100)
	if err != nil {
		return nil, err
	}
	if rep.Stats.Equal(perturbed) {
		return nil, fmt.Errorf("harness: serve negative control failed — the twin did not detect a MaxDelay perturbation")
	}

	// Fleet sizing from the same closed form: replicas a P100 needs for the
	// offered rate at a p99 target.
	spec := models.MicroAlexNetSpec(models.MicroConfig{Classes: 8, InH: 24, Width: 8})
	for _, rate := range []float64{50_000, 250_000, 1_000_000} {
		est, err := cluster.SimulateServe(cluster.TeslaP100, spec, rate, 16, 800, 2_000)
		if err != nil {
			return nil, err
		}
		verdict := "p99 ok"
		if !est.Feasible {
			verdict = "p99 MISS"
		}
		t.Add(fmt.Sprintf("sizing/P100 @ %.0fk req/s", rate/1000),
			fmt.Sprintf("%.0f", est.Rate),
			"16", "800",
			fmt.Sprintf("%d", est.Replicas),
			"∞",
			fmt.Sprintf("%d (%d/%d)", est.Stats.Batches, est.Stats.SizeFlushes, est.Stats.DeadlineFlushes),
			fmt.Sprintf("%.2f", est.Stats.MeanBatch()),
			"0",
			fmt.Sprintf("%d", est.Stats.P50),
			fmt.Sprintf("%d", est.Stats.P99),
			verdict)
	}

	t.Note("The scheduler runs on a virtual clock (1 tick = 1µs): arrivals come from seeded traces, batches flush at MaxBatch (K) or when the head request has waited MaxDelay (D), and a flushed batch takes the lowest free replica. Every counter is exact integer arithmetic, bit-reproducible across runs and replica counts.")
	t.Note("The model column matches comm.ExpectedServeStats counter-for-counter (batches, flush causes, histogram, busy ticks, every percentile) in the uniform-gap regime; \"exact\" means all of them. Poisson/bursty rows have no closed form (—).")
	t.Note("In-study controls: a one-tick MaxDelay perturbation (500→499 at gap 100 moves the steady batch from 6 to 5) must be flagged by the twin, and every row re-runs with two extra replicas — unbounded-queue rows must reproduce their batch histogram (and, under capacity, their full stats) exactly, while the bounded-queue row may only reject fewer (a faster-draining pool admits more).")
	t.Note("Overload row: the bounded queue (cap 24) sheds the burst excess as typed ErrOverloaded rejections — admission control, not an outage; accepted + rejected == offered is property-tested in internal/serve.")
	t.Note("Sizing rows price a TeslaP100 fleet for the micro AlexNet with cluster.SimulateServe: replicas = ⌈S(b)/(b·gap)⌉ from the same service model, p99 from the same closed form against a 2ms target.")
	return t, nil
}
