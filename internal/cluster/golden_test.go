package cluster

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/models"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/pricing.golden from the current pricing")

// goldenWriter renders priced outputs one estimate per line: integers in
// decimal, every float64 as its IEEE bit pattern, so the comparison is
// bit-for-bit rather than to a tolerance.
type goldenWriter struct{ b strings.Builder }

func (g *goldenWriter) label(format string, args ...any) {
	if g.b.Len() > 0 {
		g.b.WriteByte('\n')
	}
	fmt.Fprintf(&g.b, format, args...)
}
func (g *goldenWriter) ints(vs ...int64) {
	for _, v := range vs {
		fmt.Fprintf(&g.b, " %d", v)
	}
}
func (g *goldenWriter) floats(vs ...float64) {
	for _, v := range vs {
		fmt.Fprintf(&g.b, " %016x", math.Float64bits(v))
	}
}
func (g *goldenWriter) flag(v bool) {
	if v {
		g.b.WriteString(" T")
	} else {
		g.b.WriteString(" F")
	}
}
func (g *goldenWriter) stats(s dist.CommStats) {
	g.ints(s.Messages, s.Bytes, s.Steps, s.Retries, s.Stalls)
}
func (g *goldenWriter) tiers(t dist.TierStats) { g.stats(t.Intra); g.stats(t.Inter) }

func (g *goldenWriter) estimate(e Estimate) {
	g.ints(e.Iterations, int64(e.LocalBatch), int64(e.MicroBatch))
	g.flag(e.OOM)
	g.floats(e.CompSec, e.CommSec, e.TotalSec, e.ImagesSec, e.BackwardSec, e.HiddenCommSec)
	g.stats(e.Comm)
	g.tiers(e.TierComm)
	for _, b := range e.Buckets {
		g.ints(b.Bytes)
		g.floats(b.ReadySec, b.StartSec, b.DoneSec)
		g.flag(b.Hidden)
	}
}

// guarded runs one grid cell, recording a panic (e.g. a resolution schedule
// on a flatten→fc model) as the cell's pinned outcome.
func (g *goldenWriter) guarded(cell func()) {
	defer func() {
		if recover() != nil {
			g.b.WriteString(" panic")
		}
	}()
	cell()
}

// pricingDump prices the golden grid: four clusters (flat ring, one chassis,
// a two-tier pod, a large flat fleet with overlap; plus the pod with overlap)
// × three models × the five Simulate* entry points.
func pricingDump(t *testing.T) string {
	const epochs, dataset = 90, 1281167
	overlapped := func(c Cluster) Cluster { c.Overlap = true; return c }
	clusters := []struct {
		name  string
		c     Cluster
		batch int
	}{
		{"knl64", KNLCluster(64), 4100}, // 4100 does not divide 64: ceil'd shards
		{"dgx1", DGX1(), 8192},          // 1024/device: micro-batching
		{"pod4", DGXPod(4), 2048},
		{"p100x256+overlap", overlapped(P100Cluster(256)), 8192},
		{"pod4+overlap", overlapped(DGXPod(4)), 2048},
	}
	specs := []*models.ModelSpec{
		models.AlexNetSpec(),
		models.ResNet50Spec(),
		models.MicroConvNetSpec(models.MicroConfig{Classes: 8, InH: 24, Width: 8}),
	}
	sched := mustSchedule(t, "112x112@0-29,224x224@30+")

	var g goldenWriter
	for _, cl := range clusters {
		c, batch := cl.c, cl.batch
		_, hier := c.Hierarchy()
		for _, spec := range specs {
			id := cl.name + "/" + spec.Name

			g.label("%s/simulate", id)
			base := Simulate(c, spec, batch, epochs, dataset)
			g.estimate(base)

			drain := make([]float64, 0, 8) // eight losses empty a pod's last node
			for i := 1; i <= 8 && i < c.Count; i++ {
				drain = append(drain, 0.1*float64(i))
			}
			for i, fracs := range [][]float64{{0.25, 0.5}, drain, {0.3, 0.3, -0.5, 1.2}} {
				g.label("%s/elastic%d", id, i)
				est := SimulateElastic(c, spec, batch, epochs, dataset, fracs)
				g.estimate(est.Baseline)
				g.floats(est.TotalSec, est.ImagesSec)
				for _, p := range est.Phases {
					g.ints(int64(p.Devices), p.Iterations)
					g.floats(p.CompSec, p.CommSec, p.ImagesSec)
				}
			}

			g.label("%s/progressive", id)
			g.guarded(func() {
				est := SimulateProgressive(c, spec, batch, epochs, dataset, sched)
				g.estimate(est.Baseline)
				g.floats(est.TotalSec, est.ImagesSec, est.TrainFLOPs, est.BaselineTrainFLOPs)
				for _, p := range est.Phases {
					g.ints(int64(p.H), int64(p.W), int64(p.Epochs), p.Iterations, p.TrainFLOPsPerImage)
					g.floats(p.CompSec, p.CommSec, p.ImagesSec)
				}
			})

			type period struct{ h, hi int }
			periods := []period{{1, 0}, {4, 0}, {8, 0}}
			if hier {
				periods = append(periods, period{4, 2}, period{8, 2})
			}
			for _, p := range periods {
				g.label("%s/localsgd-H%d-Hi%d", id, p.h, p.hi)
				e := SimulateLocalSGD(c, spec, batch, epochs, dataset, p.h, p.hi)
				g.ints(e.Iterations, e.SyncRounds, e.IntraRounds, int64(e.LocalBatch), int64(e.MicroBatch))
				g.flag(e.OOM)
				g.floats(e.CompSec, e.SyncSec, e.IntraSec, e.StepSec, e.TotalSec, e.ImagesSec, e.Speedup)
				g.stats(e.Comm)
				g.tiers(e.TierComm)
			}

			// Idle, a surge past capacity with a mid-surge preemption, a
			// quiet tail; flat fleets may grow past Count.
			g.label("%s/autoscale", id)
			pol := AutoscalePolicy{Min: c.Count / 2, Max: c.Count, TargetUtilization: 0.8,
				MaxBacklogSec: 120, Step: 2, CooldownIntervals: 1, USDPerDeviceHour: 3}
			if !hier {
				pol.Max = c.Count + 6
			}
			var trace []TrafficPoint
			for i, load := range []float64{0.3, 0.3, 1.4, 1.4, 1.4, 1.4, 1.4, 1.4, 0.9, 0.3, 0.3, 0.3, 0.3} {
				tp := TrafficPoint{OfferedImagesSec: load * base.ImagesSec}
				if i == 4 {
					tp.Preemptions = 3
				}
				trace = append(trace, tp)
			}
			est := SimulateAutoscale(c, spec, batch, 60, trace, pol)
			g.b.WriteString(" " + strings.ReplaceAll(est.Timeline, " ", ","))
			g.ints(int64(est.Joins), int64(est.Evictions), int64(est.Preempted))
			g.floats(est.ReactionIntervals, est.TotalUSD, est.StaticUSD, est.FinalBacklogSec)
			for _, p := range est.Phases {
				g.ints(int64(p.Interval), int64(p.Devices))
				g.floats(p.CapacityImagesSec, p.OfferedImagesSec, p.Utilization, p.BacklogSec, p.USD)
				if !hier {
					// Hierarchical phases used to report the flat closed
					// form here (a bug, pinned by its own regression
					// test) — the one field the golden grid leaves out.
					g.stats(p.Comm)
				}
			}
		}
	}
	g.b.WriteByte('\n')
	return g.b.String()
}

// TestPricingGolden pins every seconds/throughput field and every counter
// the five Simulate* entry points produce, bit for bit, against the file
// generated before the pricing was folded into one function: a refactor of
// the pricer must not move a single ulp. An intended pricing change (a
// recalibration) regenerates the file with -update and reviews the diff.
func TestPricingGolden(t *testing.T) {
	const path = "testdata/pricing.golden"
	got := pricingDump(t)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden has %d lines, pricing produced %d", len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			label, _, _ := strings.Cut(wantLines[i], " ")
			t.Errorf("%s differs from golden\n got: %s\nwant: %s", label, gotLines[i], wantLines[i])
		}
	}
}
