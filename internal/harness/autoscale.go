package harness

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/models"
)

// AutoscaleStudy replays one deterministic day-shaped traffic trace — idle,
// a surge to 1.5x the starting fleet's capacity with a spot preemption in
// the middle, then a quiet tail — through cluster.SimulateAutoscale under
// several control laws, against the static-Max fleet as the cost baseline.
// The table reports each policy's world-size timeline, its membership churn
// (joins, evictions, how many were involuntary), its reaction time in
// trace intervals, the worst backlog it let build, and the dollar bill
// against the baseline. The model column cross-checks every phase's
// closed-form schedule (comm.ExpectedTierStats at the phase's world, shrunk
// or grown) — the same identity the engine's measured counters satisfy
// after evictions and joins. Everything is exact arithmetic on a fixed trace, so
// the docs-drift job regenerates this section bit-identically.
func AutoscaleStudy() (*Table, error) {
	const (
		batch       = 1024
		intervalSec = 60
		datasetSize = 1_281_167
		usdPerHour  = 3.0
	)
	c := cluster.KNLCluster(4)
	spec := models.ResNet50Spec()
	base := cluster.Simulate(c, spec, batch, 1, datasetSize)

	// The trace: 4 idle intervals at 30% of the starting fleet's capacity,
	// 8 surge intervals at 150% (one device preempted mid-surge), then 8
	// quiet intervals back at 30%.
	var trace []cluster.TrafficPoint
	for i := 0; i < 20; i++ {
		tp := cluster.TrafficPoint{OfferedImagesSec: 0.3 * base.ImagesSec}
		if i >= 4 && i < 12 {
			tp.OfferedImagesSec = 1.5 * base.ImagesSec
		}
		if i == 8 {
			tp.Preemptions = 1
		}
		trace = append(trace, tp)
	}

	t := &Table{
		ID: "Autoscale study",
		Title: fmt.Sprintf("Autoscaling a %d-device %s fleet through a surge+preemption trace (ResNet-50, B=%d, %ds intervals)",
			c.Count, c.Machine.Name, batch, intervalSec),
		Header: []string{"policy", "world timeline", "joins", "evicted (preempted)", "react (ivals)", "max backlog", "USD", "vs static", "model"},
	}
	policies := []struct {
		label string
		pol   cluster.AutoscalePolicy
	}{
		{"max, no control law", cluster.AutoscalePolicy{Min: 8, Max: 8, USDPerDeviceHour: usdPerHour}},
		{"util 0.8", cluster.AutoscalePolicy{Min: 2, Max: 8, TargetUtilization: 0.8, USDPerDeviceHour: usdPerHour}},
		{"util 0.8, cooldown 2", cluster.AutoscalePolicy{Min: 2, Max: 8, TargetUtilization: 0.8, CooldownIntervals: 2, USDPerDeviceHour: usdPerHour}},
		{"backlog 30s", cluster.AutoscalePolicy{Min: 2, Max: 8, MaxBacklogSec: 30, USDPerDeviceHour: usdPerHour}},
	}
	h, _ := c.Hierarchy()
	for _, p := range policies {
		est := cluster.SimulateAutoscale(c, spec, batch, intervalSec, trace, p.pol)
		match := "exact"
		maxBacklog := 0.0
		for _, ph := range est.Phases {
			if want := comm.ExpectedTierStats(h, h.FrontFilled(ph.Devices), spec.WeightBytes()).Total(); ph.Comm != want {
				match = fmt.Sprintf("DRIFT @%d: want %+v", ph.Interval, want)
			}
			if ph.BacklogSec > maxBacklog {
				maxBacklog = ph.BacklogSec
			}
		}
		react := "-"
		if est.ReactionIntervals > 0 || est.Joins > 0 {
			react = fmt.Sprintf("%.1f", est.ReactionIntervals)
		}
		t.Add(p.label,
			est.Timeline,
			fmt.Sprintf("%d", est.Joins),
			fmt.Sprintf("%d (%d)", est.Evictions, est.Preempted),
			react,
			fmt.Sprintf("%.0fs", maxBacklog),
			fmt.Sprintf("$%.2f", est.TotalUSD),
			fmt.Sprintf("%+.0f%%", -est.SavingsPct()),
			match)
	}
	t.Note("Capacity at every world size is the same per-iteration phase pricing SimulateElastic uses (efficiency curve + alpha-beta collective), so growing from %d devices buys sublinear throughput — the collective's cost grows with the world.", c.Count)
	t.Note("The first row pins Min = Max with no scaling rule: the preempted device is never replaced, so even a \"static\" fleet needs the control plane to hold its size — and it still runs 8%% under the static-Max bill it is benchmarked against.")
	t.Note("The preemption at interval 8 lands mid-surge: the utilization policies replace the lost device at the next decision, the cluster-scale mirror of the engine's evict-then-join grid (tested bit-identical there).")
	t.Note("The model column replays every interval against comm.ExpectedTierStats at that world — one size list whether the fleet has shrunk below or grown past its starting size — and \"exact\" means every counter matches.")
	t.Note("vs static: dollar cost relative to pinning Max devices for the whole trace; the gap is what the control plane is worth on this trace.")
	return t, nil
}
