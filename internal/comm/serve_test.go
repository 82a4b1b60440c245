package comm

import (
	"strings"
	"testing"

	"repro/internal/serve"
)

// The closed form must reproduce every measured counter exactly across the
// deterministic-clock regime: size- and deadline-triggered steady states,
// trigger ties, partial final batches, single-request runs, zero delay,
// multi-replica pools, and the capacity-equality boundary.
func TestExpectedServeStatsCounterForCounter(t *testing.T) {
	cases := []struct {
		name string
		cfg  serve.Config
		n    int
		gap  serve.Ticks
	}{
		{"size-regime", serve.Config{MaxBatch: 4, MaxDelay: 500, Replicas: 1, Service: serve.ServiceModel{Base: 50, PerImage: 20}}, 64, 100},
		{"deadline-regime", serve.Config{MaxBatch: 16, MaxDelay: 400, Replicas: 1, Service: serve.ServiceModel{Base: 50, PerImage: 20}}, 64, 100},
		{"trigger-tie", serve.Config{MaxBatch: 5, MaxDelay: 400, Replicas: 1, Service: serve.ServiceModel{Base: 50, PerImage: 20}}, 60, 100},
		{"partial-tail", serve.Config{MaxBatch: 4, MaxDelay: 900, Replicas: 1, Service: serve.ServiceModel{Base: 50, PerImage: 20}}, 63, 100},
		{"fewer-than-one-batch", serve.Config{MaxBatch: 16, MaxDelay: 5000, Replicas: 2, Service: serve.ServiceModel{Base: 50, PerImage: 20}}, 7, 100},
		{"single-request", serve.Config{MaxBatch: 8, MaxDelay: 250, Replicas: 1, Service: serve.ServiceModel{Base: 50, PerImage: 20}}, 1, 100},
		{"zero-delay", serve.Config{MaxBatch: 8, MaxDelay: 0, Replicas: 2, Service: serve.ServiceModel{Base: 10, PerImage: 5}}, 40, 100},
		{"batch-of-one", serve.Config{MaxBatch: 1, MaxDelay: 700, Replicas: 1, Service: serve.ServiceModel{Base: 10, PerImage: 5}}, 40, 100},
		{"multi-replica", serve.Config{MaxBatch: 8, MaxDelay: 700, Replicas: 3, Service: serve.ServiceModel{Base: 400, PerImage: 100}}, 96, 100},
		{"capacity-equality", serve.Config{MaxBatch: 4, MaxDelay: 300, Replicas: 2, Service: serve.ServiceModel{Base: 0, PerImage: 200}}, 48, 100},
		{"bounded-queue-ok", serve.Config{MaxBatch: 4, MaxDelay: 300, QueueCap: 4, Replicas: 1, Service: serve.ServiceModel{Base: 40, PerImage: 10}}, 32, 100},
		{"coarse-gap", serve.Config{MaxBatch: 6, MaxDelay: 500, Replicas: 1, Service: serve.ServiceModel{Base: 30, PerImage: 15}}, 25, 700},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := serve.Simulate(tc.cfg, serve.UniformTrace(tc.n, tc.gap, 4))
			if err != nil {
				t.Fatalf("Simulate: %v", err)
			}
			want, err := ExpectedServeStats(tc.cfg, tc.n, tc.gap)
			if err != nil {
				t.Fatalf("ExpectedServeStats: %v", err)
			}
			if !rep.Stats.Equal(want) {
				t.Fatalf("measured != model:\n%s", rep.Stats.Diff(want))
			}
		})
	}
}

// Negative control: perturbing MaxDelay by one tick crosses the batch-size
// boundary (g=100, D=400 → b=5; D=399 → b=4), and the twin must detect it —
// the perturbed model may not match the unperturbed measurement.
func TestExpectedServeStatsNegativeControl(t *testing.T) {
	cfg := serve.Config{MaxBatch: 16, MaxDelay: 400, Replicas: 1,
		Service: serve.ServiceModel{Base: 50, PerImage: 20}}
	const n, gap = 100, 100

	if b := ServeBatchSize(cfg, gap); b != 5 {
		t.Fatalf("baseline batch size %d, want 5", b)
	}
	rep, err := serve.Simulate(cfg, serve.UniformTrace(n, gap, 4))
	if err != nil {
		t.Fatal(err)
	}

	perturbed := cfg
	perturbed.MaxDelay = 399
	if b := ServeBatchSize(perturbed, gap); b != 4 {
		t.Fatalf("perturbed batch size %d, want 4", b)
	}
	wrong, err := ExpectedServeStats(perturbed, n, gap)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Equal(wrong) {
		t.Fatal("perturbed model matched unperturbed measurement — the twin is not sensitive to MaxDelay")
	}
	diff := rep.Stats.Diff(wrong)
	if !strings.Contains(diff, "Batches") || !strings.Contains(diff, "Hist[") {
		t.Fatalf("perturbation should move batch counters, diff:\n%s", diff)
	}
	// And the perturbed measurement matches the perturbed model: the twin
	// tracks the real boundary, it doesn't just differ from everything.
	rep2, err := serve.Simulate(perturbed, serve.UniformTrace(n, gap, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Stats.Equal(wrong) {
		t.Fatalf("perturbed measured != perturbed model:\n%s", rep2.Stats.Diff(wrong))
	}
}

// The model refuses regimes it does not cover instead of guessing.
func TestExpectedServeStatsRefusals(t *testing.T) {
	base := serve.Config{MaxBatch: 4, MaxDelay: 300, Replicas: 1,
		Service: serve.ServiceModel{Base: 50, PerImage: 20}}

	rejecting := base
	rejecting.QueueCap = 3 // below steady batch size 4
	if _, err := ExpectedServeStats(rejecting, 32, 100); err == nil {
		t.Fatal("model accepted a rejecting regime")
	}

	saturated := base
	saturated.Service = serve.ServiceModel{Base: 500, PerImage: 200} // S(4)=1300 > 400
	if _, err := ExpectedServeStats(saturated, 32, 100); err == nil {
		t.Fatal("model accepted a saturated regime")
	}
	// ...but the same service model with enough replicas is fine.
	saturated.Replicas = 4 // R·b·g = 1600 >= 1300
	rep, err := serve.Simulate(saturated, serve.UniformTrace(32, 100, 4))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ExpectedServeStats(saturated, 32, 100)
	if err != nil {
		t.Fatalf("model refused a feasible multi-replica regime: %v", err)
	}
	if !rep.Stats.Equal(want) {
		t.Fatalf("measured != model:\n%s", rep.Stats.Diff(want))
	}

	if _, err := ExpectedServeStats(base, 10, 0); err == nil {
		t.Fatal("model accepted gap 0")
	}
}
