package cluster

import (
	"fmt"
	"strings"

	"repro/internal/dist"
	"repro/internal/models"
)

// TrafficPoint is one interval of an offered-load trace: the work arriving
// during the interval and the devices the provider preempts out from under
// the fleet while it runs. A trace of these is what the autoscaler replays
// — the cluster-scale twin of the engine's FaultPlan, with load instead of
// per-step deaths.
type TrafficPoint struct {
	// OfferedImagesSec is the sustained arrival rate over the interval.
	OfferedImagesSec float64
	// Preemptions is the number of devices involuntarily lost at the start
	// of the interval (spot reclaims, hardware faults). The policy sees the
	// shrunken fleet and reacts like the engine's eviction machinery: the
	// work is unchanged, the world absorbs it.
	Preemptions int
}

// AutoscalePolicy is the control law SimulateAutoscale replays a trace
// through. It is target-utilization driven (scale up when offered load
// exceeds TargetUtilization of capacity, down when the smaller fleet would
// still sit below it) and optionally queue-depth driven on top: a backlog
// older than MaxBacklogSec forces a scale-up even at low utilization, the
// way latency SLOs override efficiency targets. Set TargetUtilization to 0
// for a purely queue-depth policy.
type AutoscalePolicy struct {
	// Min and Max bound the fleet. Min defaults to 1; Max defaults to the
	// cluster's Count. For flat clusters Max may exceed Count — the grown
	// worlds are priced by the same closed forms, one more single-device
	// node each. Hierarchical clusters are capped at Count.
	Min, Max int
	// TargetUtilization is the offered/capacity ratio the policy steers to
	// (0 disables utilization-driven decisions).
	TargetUtilization float64
	// MaxBacklogSec forces a scale-up whenever the queued work exceeds this
	// many seconds at current capacity (0 disables the queue-depth rule).
	MaxBacklogSec float64
	// Step is the number of devices added or removed per decision
	// (default 1).
	Step int
	// CooldownIntervals is how many intervals must pass after a scale event
	// before the policy may act again — the hysteresis that keeps a noisy
	// trace from thrashing the fleet.
	CooldownIntervals int
	// USDPerDeviceHour prices the fleet for the cost accounting (0 leaves
	// the dollar fields zero).
	USDPerDeviceHour float64
}

func (p AutoscalePolicy) withDefaults(c Cluster) AutoscalePolicy {
	if p.Min <= 0 {
		p.Min = 1
	}
	if p.Max <= 0 {
		p.Max = c.Count
	}
	if p.Step <= 0 {
		p.Step = 1
	}
	return p
}

// AutoscalePhase is one interval of the replay: the fleet the policy held,
// what it could do, what arrived, and what it cost.
type AutoscalePhase struct {
	Interval int
	Devices  int
	// CapacityImagesSec is the fleet's sustained throughput at this world
	// size — batch over the iteration time the one pricer gives, the same
	// SimulateElastic sums.
	CapacityImagesSec float64
	OfferedImagesSec  float64
	// Utilization is offered/capacity (may exceed 1 while overloaded).
	Utilization float64
	// BacklogSec is the queued work at the end of the interval, in seconds
	// of current capacity.
	BacklogSec float64
	// Comm is the closed-form schedule of one allreduce at this world size
	// — the schedule the capacity was priced with, both tiers summed on a
	// hierarchical cluster — which the engine's measured counters must
	// match bit-for-bit at the same world.
	Comm dist.CommStats
	USD  float64
}

// AutoscaleEstimate is the replay's output: the per-interval phases, the
// membership timeline, the reaction-time statistics, and the dollar cost
// against the static-fleet baseline.
type AutoscaleEstimate struct {
	Phases []AutoscalePhase
	// Timeline is the chronological world-size history, "8x4 6x2 8x6"
	// meaning 4 intervals at 8 devices, then 2 at 6, then 6 back at 8 —
	// the cluster-scale mirror of MembershipStats.Timeline, which sorts
	// instead (a fleet only shrinks under the engine; here it grows back).
	Timeline string
	// Joins and Evictions count devices added and removed across the
	// replay; Preempted of the evictions were involuntary.
	Joins, Evictions, Preempted int
	// ReactionIntervals is the mean number of intervals between an overload
	// signal (utilization or backlog breach) first appearing and the policy
	// scaling up — the autoscaler's reaction time in units of the trace's
	// resolution. Zero when no breach occurred.
	ReactionIntervals float64
	// TotalUSD prices the elastic fleet; StaticUSD prices holding Max
	// devices for the whole trace. The difference is what the control
	// plane is worth.
	TotalUSD, StaticUSD float64
	// FinalBacklogSec is the queue left when the trace ends (unserved work
	// the fleet never caught up on).
	FinalBacklogSec float64
}

// SavingsPct returns how much cheaper the elastic fleet was than the
// static-Max baseline, in percent.
func (e AutoscaleEstimate) SavingsPct() float64 {
	if e.StaticUSD == 0 {
		return 0
	}
	return 100 * (e.StaticUSD - e.TotalUSD) / e.StaticUSD
}

// SimulateAutoscale replays a traffic/preemption trace through the
// autoscaling control law: each interval the fleet absorbs its preemptions,
// serves the offered load (queueing what it cannot), and the policy decides
// the next interval's world size. Capacity at every world is priced by the
// same pricer SimulateElastic uses — the efficiency curve for compute, the
// alpha-beta collective for communication (serially: Overlap is ignored) —
// so the replay and the engine agree on what a world of p is worth, and each
// phase's closed-form Comm schedule is the analytic twin of the counters a
// real engine at that world records. intervalSec is the trace resolution;
// batch is the global batch the fleet trains at (capacity scales with world
// size through the collective's cost, not just the device count).
func SimulateAutoscale(c Cluster, spec *models.ModelSpec, batch int, intervalSec float64, trace []TrafficPoint, pol AutoscalePolicy) AutoscaleEstimate {
	if batch <= 0 || intervalSec <= 0 {
		panic("cluster: invalid autoscale parameters")
	}
	pol = pol.withDefaults(c)
	if _, tiered := c.Hierarchy(); tiered && pol.Max > c.Count {
		panic(fmt.Sprintf("cluster: hierarchical autoscale cannot grow past the %d-device fleet", c.Count))
	}
	c.Overlap = false

	var out AutoscaleEstimate
	world := c.Count
	if world > pol.Max {
		world = pol.Max
	}
	if world < pol.Min {
		world = pol.Min
	}
	backlogImages := 0.0
	cooldown := 0
	breachStart := -1
	var reactions []int
	for i, tp := range trace {
		// Preemptions land first: the provider does not wait for cooldowns.
		if tp.Preemptions > 0 {
			lost := tp.Preemptions
			if world-lost < 1 {
				lost = world - 1
			}
			world -= lost
			out.Evictions += lost
			out.Preempted += lost
		}
		cur := pricePhase(c, spec, batch, world)
		capacity := cur.ImagesSec
		backlogImages += (tp.OfferedImagesSec - capacity) * intervalSec
		if backlogImages < 0 {
			backlogImages = 0
		}
		ph := AutoscalePhase{
			Interval: i, Devices: world,
			CapacityImagesSec: capacity,
			OfferedImagesSec:  tp.OfferedImagesSec,
			Utilization:       tp.OfferedImagesSec / capacity,
			BacklogSec:        backlogImages / capacity,
			Comm:              cur.Comm,
			USD:               float64(world) * intervalSec / 3600 * pol.USDPerDeviceHour,
		}
		out.Phases = append(out.Phases, ph)
		out.TotalUSD += ph.USD

		// The overload signal: utilization past target, or a backlog past
		// the SLO. Track when it first appears so the scale-up that answers
		// it yields a reaction-time sample.
		overloaded := (pol.TargetUtilization > 0 && ph.Utilization > pol.TargetUtilization) ||
			(pol.MaxBacklogSec > 0 && ph.BacklogSec > pol.MaxBacklogSec)
		if overloaded && breachStart < 0 {
			breachStart = i
		}
		if cooldown > 0 {
			cooldown--
		} else if overloaded && world < pol.Max {
			add := pol.Step
			if world+add > pol.Max {
				add = pol.Max - world
			}
			world += add
			out.Joins += add
			cooldown = pol.CooldownIntervals
			reactions = append(reactions, i-breachStart)
			breachStart = -1
		} else if !overloaded && backlogImages == 0 && world > pol.Min &&
			pol.TargetUtilization > 0 &&
			tp.OfferedImagesSec/pricePhase(c, spec, batch, max(world-pol.Step, pol.Min)).ImagesSec < pol.TargetUtilization {
			// Scale down only when the smaller fleet would still sit under
			// target — projected, not current, utilization, so the policy
			// does not oscillate around the threshold.
			drop := pol.Step
			if world-drop < pol.Min {
				drop = world - pol.Min
			}
			world -= drop
			out.Evictions += drop
			cooldown = pol.CooldownIntervals
		}
		if !overloaded {
			breachStart = -1
		}
	}
	if n := len(out.Phases); n > 0 {
		out.FinalBacklogSec = out.Phases[n-1].BacklogSec
	}
	if len(reactions) > 0 {
		sum := 0
		for _, r := range reactions {
			sum += r
		}
		out.ReactionIntervals = float64(sum) / float64(len(reactions))
	}
	out.StaticUSD = float64(pol.Max) * float64(len(trace)) * intervalSec / 3600 * pol.USDPerDeviceHour
	out.Timeline = autoscaleTimeline(out.Phases)
	return out
}

// autoscaleTimeline renders the chronological world-size history, merging
// consecutive intervals at the same world: "8x4 6x2 8x6".
func autoscaleTimeline(phases []AutoscalePhase) string {
	if len(phases) == 0 {
		return "-"
	}
	var b strings.Builder
	world, count := phases[0].Devices, 0
	flush := func() {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%dx%d", world, count)
	}
	for _, ph := range phases {
		if ph.Devices != world {
			flush()
			world, count = ph.Devices, 0
		}
		count++
	}
	flush()
	return b.String()
}
