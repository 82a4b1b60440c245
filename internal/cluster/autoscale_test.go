package cluster

import (
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/models"
)

// rampTrace builds a load trace that idles, surges past the fleet's
// capacity, then falls back — the canonical shape an autoscaler must track.
func rampTrace(lowIPS, highIPS float64, idle, surge, tail int) []TrafficPoint {
	var tr []TrafficPoint
	for i := 0; i < idle; i++ {
		tr = append(tr, TrafficPoint{OfferedImagesSec: lowIPS})
	}
	for i := 0; i < surge; i++ {
		tr = append(tr, TrafficPoint{OfferedImagesSec: highIPS})
	}
	for i := 0; i < tail; i++ {
		tr = append(tr, TrafficPoint{OfferedImagesSec: lowIPS})
	}
	return tr
}

// TestAutoscaleTracksLoad: a surge past the target utilization grows the
// fleet, the tail shrinks it back, and every phase's closed-form Comm is
// the full-strength schedule at that world size — the same identity the
// engine's measured counters satisfy after joins and evictions.
func TestAutoscaleTracksLoad(t *testing.T) {
	c := KNLCluster(4)
	spec := models.ResNet50Spec()
	base := Simulate(c, spec, 1024, 1, imagenetSize)
	low, high := 0.3*base.ImagesSec, 1.5*base.ImagesSec
	pol := AutoscalePolicy{
		Min: 2, Max: 8, TargetUtilization: 0.8, USDPerDeviceHour: 3.0,
	}
	est := SimulateAutoscale(c, spec, 1024, 60, rampTrace(low, high, 3, 6, 6), pol)

	if est.Joins == 0 {
		t.Fatalf("surge produced no joins: timeline %q", est.Timeline)
	}
	if est.Evictions == 0 {
		t.Fatalf("idle tail produced no scale-down: timeline %q", est.Timeline)
	}
	peak, last := 0, 0
	for _, ph := range est.Phases {
		if ph.Devices > peak {
			peak = ph.Devices
		}
		last = ph.Devices
		want := comm.ExpectedStats(c.Algo, ph.Devices, spec.WeightBytes())
		if ph.Comm != want {
			t.Fatalf("interval %d: phase Comm %+v != closed form at world %d %+v",
				ph.Interval, ph.Comm, ph.Devices, want)
		}
		if ph.Devices < pol.Min || ph.Devices > pol.Max {
			t.Fatalf("interval %d: world %d outside [%d,%d]", ph.Interval, ph.Devices, pol.Min, pol.Max)
		}
	}
	if peak <= c.Count {
		t.Fatalf("peak world %d never grew past the starting %d", peak, c.Count)
	}
	if last >= peak {
		t.Fatalf("fleet never shrank back: last %d, peak %d (timeline %q)", last, peak, est.Timeline)
	}
	if est.TotalUSD >= est.StaticUSD {
		t.Fatalf("elastic fleet cost %.2f, static-Max %.2f — autoscaling saved nothing", est.TotalUSD, est.StaticUSD)
	}
	if est.SavingsPct() <= 0 {
		t.Fatalf("savings %.1f%%, want positive", est.SavingsPct())
	}
	if est.FinalBacklogSec != 0 {
		t.Fatalf("backlog %.1fs left after the surge ended", est.FinalBacklogSec)
	}
	if len(strings.Fields(est.Timeline)) < 3 {
		t.Fatalf("timeline %q too flat for a grow-shrink trace", est.Timeline)
	}
}

// TestAutoscalePreemptionRecovery: preempted devices register as
// involuntary evictions and the policy grows the fleet back — the
// cluster-scale mirror of the engine's evict-then-join grid.
func TestAutoscalePreemptionRecovery(t *testing.T) {
	c := KNLCluster(6)
	spec := models.ResNet50Spec()
	base := Simulate(c, spec, 1024, 1, imagenetSize)
	load := 0.75 * base.ImagesSec // near target at the full fleet
	tr := []TrafficPoint{
		{OfferedImagesSec: load},
		{OfferedImagesSec: load, Preemptions: 2},
		{OfferedImagesSec: load},
		{OfferedImagesSec: load},
		{OfferedImagesSec: load},
		{OfferedImagesSec: load},
	}
	est := SimulateAutoscale(c, spec, 1024, 60, tr, AutoscalePolicy{
		Min: 1, Max: 6, TargetUtilization: 0.8, USDPerDeviceHour: 3.0,
	})
	if est.Preempted != 2 || est.Evictions < 2 {
		t.Fatalf("preempted=%d evictions=%d, want 2 involuntary evictions", est.Preempted, est.Evictions)
	}
	if est.Joins == 0 {
		t.Fatalf("policy never replaced the preempted devices: timeline %q", est.Timeline)
	}
	if got := est.Phases[1].Devices; got != 4 {
		t.Fatalf("interval 1 world %d, want 4 after losing 2 of 6", got)
	}
	if last := est.Phases[len(est.Phases)-1].Devices; last <= 4 {
		t.Fatalf("fleet never recovered: final world %d (timeline %q)", last, est.Timeline)
	}
	if est.ReactionIntervals < 0 {
		t.Fatalf("negative reaction time %v", est.ReactionIntervals)
	}
}

// TestAutoscaleQueueDepthPolicy: with TargetUtilization zeroed the backlog
// SLO alone drives scale-up, and the queue drains once the fleet grows.
func TestAutoscaleQueueDepthPolicy(t *testing.T) {
	c := KNLCluster(2)
	spec := models.ResNet50Spec()
	base := Simulate(c, spec, 1024, 1, imagenetSize)
	est := SimulateAutoscale(c, spec, 1024, 60,
		rampTrace(0, 1.4*base.ImagesSec, 0, 5, 5),
		AutoscalePolicy{Min: 2, Max: 6, MaxBacklogSec: 30, USDPerDeviceHour: 3.0})
	if est.Joins == 0 {
		t.Fatalf("backlog never triggered a join: timeline %q", est.Timeline)
	}
	maxBacklog := 0.0
	for _, ph := range est.Phases {
		if ph.BacklogSec > maxBacklog {
			maxBacklog = ph.BacklogSec
		}
	}
	if maxBacklog <= 30 {
		t.Fatalf("trace never breached the 30s SLO (max backlog %.1fs) — test is vacuous", maxBacklog)
	}
	if est.FinalBacklogSec != 0 {
		t.Fatalf("queue never drained: %.1fs left", est.FinalBacklogSec)
	}
}

// TestAutoscaleTimelineMerging: the chronological timeline merges equal
// neighbours and sums to the trace length.
func TestAutoscaleTimelineMerging(t *testing.T) {
	phases := []AutoscalePhase{
		{Devices: 8}, {Devices: 8}, {Devices: 6}, {Devices: 8}, {Devices: 8}, {Devices: 8},
	}
	if got := autoscaleTimeline(phases); got != "8x2 6x1 8x3" {
		t.Fatalf("timeline %q, want %q", got, "8x2 6x1 8x3")
	}
	if got := autoscaleTimeline(nil); got != "-" {
		t.Fatalf("empty timeline %q, want -", got)
	}
}

// TestAutoscaleHierarchicalCap: hierarchical clusters cannot scale past
// their node grid — the policy must reject Max > Count loudly.
func TestAutoscaleHierarchicalCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Max past a hierarchical fleet did not panic")
		}
	}()
	SimulateAutoscale(DGXPod(2), models.ResNet50Spec(), 1024, 60,
		rampTrace(100, 200, 1, 1, 1), AutoscalePolicy{Max: 24})
}

// TestAutoscaleHierarchicalComm: a hierarchical phase reports the two-tier
// schedule it was priced with — the full fleet's is exactly Simulate's —
// not the flat closed form over the same device count.
func TestAutoscaleHierarchicalComm(t *testing.T) {
	c := DGXPod(2)
	spec := models.ResNet50Spec()
	base := Simulate(c, spec, 1024, 1, imagenetSize)
	est := SimulateAutoscale(c, spec, 1024, 60,
		[]TrafficPoint{{OfferedImagesSec: 0.5 * base.ImagesSec}}, AutoscalePolicy{})
	if got := est.Phases[0].Comm; got != base.Comm {
		t.Fatalf("full-fleet phase Comm %+v != Simulate's %+v", got, base.Comm)
	}
}
