package cluster

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/models"
)

// Phase is one constant-configuration segment of a run whose world size or
// input resolution changes along the way: the fleet held Devices live
// devices and trained at H×W input for Iterations iterations at the given
// per-iteration cost.
type Phase struct {
	Devices int
	H, W    int
	// Epochs is the segment's length in whole epochs; zero for the phases
	// of a degrading fleet, whose boundaries fall on iterations.
	Epochs     int
	Iterations int64
	CompSec    float64 // per-iteration computation at this world and resolution
	CommSec    float64 // per-iteration communication at this world (resolution-invariant)
	ImagesSec  float64 // sustained throughput during the phase
	// TrainFLOPsPerImage is the forward+backward cost per image at this
	// phase's resolution — the analytic curve the ENTR study plots.
	TrainFLOPsPerImage int64
}

// IterSec returns the phase's per-iteration time.
func (p Phase) IterSec() float64 { return p.CompSec + p.CommSec }

// Timeline prices a fixed-epoch run as a sequence of phases against the
// same configuration left alone — the simulator twin of the engine's elastic
// membership (SimulateElastic: the fleet shrinks mid-training) and of
// core.Config.Resolutions (SimulateProgressive: the input resolution follows
// a schedule). The epoch budget and iteration count (and with them the
// optimizer trajectory) are unchanged by either; what moves is the wall
// clock, so TotalSec versus Baseline.TotalSec is the time-to-accuracy cost
// of a shrinking world, or the analytic saving of the ENTR hypothesis
// (assuming the curriculum reaches the same accuracy — the measured study's
// question). Communication is priced serially on both sides: the overlap
// pipeline is a refinement of the healthy fixed-shape fleet, so
// Cluster.Overlap is ignored.
type Timeline struct {
	// Baseline is the same configuration priced with the fleet intact at
	// the spec's canonical resolution for every epoch.
	Baseline Estimate
	// Phases is the timeline in run order.
	Phases []Phase
	// TotalSec is the run's wall clock; ImagesSec its average sustained
	// throughput.
	TotalSec  float64
	ImagesSec float64
	// TrainFLOPs and BaselineTrainFLOPs are the total training FLOPs of
	// the scheduled and baseline runs (per full pass over the iteration
	// budget). Only a resolution schedule changes the work, so only
	// SimulateProgressive accounts them.
	TrainFLOPs         float64
	BaselineTrainFLOPs float64
}

// Duration returns the total time as a time.Duration.
func (t Timeline) Duration() time.Duration {
	return time.Duration(t.TotalSec * float64(time.Second))
}

// SlowdownPct returns how much slower the run is than its baseline, in
// percent of the baseline wall clock.
func (t Timeline) SlowdownPct() float64 {
	if t.Baseline.TotalSec == 0 {
		return 0
	}
	return 100 * (t.TotalSec - t.Baseline.TotalSec) / t.Baseline.TotalSec
}

// SpeedupPct returns how much faster the run is than its baseline, in
// percent of the baseline wall clock.
func (t Timeline) SpeedupPct() float64 {
	if t.Baseline.TotalSec == 0 {
		return 0
	}
	return 100 * (t.Baseline.TotalSec - t.TotalSec) / t.Baseline.TotalSec
}

// FLOPSavingsPct returns the fraction of training FLOPs the curriculum
// avoids, in percent.
func (t Timeline) FLOPSavingsPct() float64 {
	if t.BaselineTrainFLOPs == 0 {
		return 0
	}
	return 100 * (t.BaselineTrainFLOPs - t.TrainFLOPs) / t.BaselineTrainFLOPs
}

// add prices iters iterations of spec on world devices, appends the phase
// and brings the running totals up to date.
func (t *Timeline) add(c Cluster, spec *models.ModelSpec, batch, world, epochs int, iters int64) {
	e := pricePhase(c, spec, batch, world)
	ph := Phase{
		Devices: world, H: spec.InputH, W: spec.InputW, Epochs: epochs, Iterations: iters,
		CompSec: e.CompSec, CommSec: e.CommSec, ImagesSec: e.ImagesSec,
		TrainFLOPsPerImage: spec.TrainFLOPsPerImage(),
	}
	t.Phases = append(t.Phases, ph)
	t.TotalSec += float64(iters) * ph.IterSec()
	if t.TotalSec > 0 {
		t.ImagesSec = float64(batch) * float64(t.Baseline.Iterations) / t.TotalSec
	}
}

// SimulateElastic prices one fixed-epoch training run of spec on c during
// which the fleet degrades: each entry of evictAtFrac is the fraction of
// total iterations completed when one device is permanently lost and
// evicted (the engine's Elastic policy at cluster scale). The global batch
// and iteration count stay fixed — the survivors absorb the work — so each
// post-eviction phase pays a larger local batch and a (slightly) cheaper
// collective. Hierarchical clusters (PerNode > 1) lose devices from the
// last node first. The phase boundaries round down to whole iterations.
func SimulateElastic(c Cluster, spec *models.ModelSpec, batch, epochs, datasetSize int, evictAtFrac []float64) Timeline {
	c.Overlap = false
	out := Timeline{Baseline: Simulate(c, spec, batch, epochs, datasetSize)}
	if out.Baseline.OOM {
		return out
	}
	if len(evictAtFrac) >= c.Count {
		panic(fmt.Sprintf("cluster: cannot evict %d of %d devices", len(evictAtFrac), c.Count))
	}
	fracs := append([]float64(nil), evictAtFrac...)
	sort.Float64s(fracs)

	// Phase boundaries in iterations; clamp and deduplicate implicitly by
	// allowing zero-length phases to drop out.
	start, world := int64(0), c.Count
	for _, f := range append(fracs, 1) {
		end := int64(min(max(f, 0), 1) * float64(out.Baseline.Iterations))
		if end > start {
			out.add(c, spec, batch, world, 0, end-start)
			start = end
		}
		world--
	}
	return out
}

// SimulateProgressive prices one fixed-epoch training run of spec on c
// under a per-epoch resolution schedule. Each phase reprices compute with
// the spec replayed at the phase resolution (models.ModelSpec.At — memory
// fit and micro-batching included, since activation footprints shrink with
// the input), while communication stays at the canonical weight volume:
// the schedule requires |W| to be resolution-invariant (a GAP-headed
// model), and it panics otherwise, because a resolution-dependent weight
// vector cannot train under a lockstep schedule at all.
func SimulateProgressive(c Cluster, spec *models.ModelSpec, batch, epochs, datasetSize int, sched *data.ResolutionSchedule) Timeline {
	c.Overlap = false
	out := Timeline{Baseline: Simulate(c, spec, batch, epochs, datasetSize)}
	if out.Baseline.OOM {
		return out
	}
	// Phase iteration counts are cumulative-boundary differences so they
	// sum exactly to Baseline.Iterations regardless of rounding.
	itersBy := func(epoch int) int64 { return comm.Iterations(epoch, datasetSize, batch) }
	baselineIterFLOPs := float64(batch) * float64(spec.TrainFLOPsPerImage())
	for _, p := range sched.PhasesIn(epochs) {
		phaseSpec := spec.At(p.H, p.W)
		if got, want := phaseSpec.ParamCount(), spec.ParamCount(); got != want {
			panic(fmt.Sprintf("cluster: %s has %d params at %dx%d but %d at canonical — a resolution schedule needs a GAP-headed (resolution-invariant) model",
				spec.Name, got, p.H, p.W, want))
		}
		iters := itersBy(p.From+p.Epochs(epochs)) - itersBy(p.From)
		out.add(c, phaseSpec, batch, c.Count, p.Epochs(epochs), iters)
		out.TrainFLOPs += float64(iters) * float64(batch) * float64(phaseSpec.TrainFLOPsPerImage())
		out.BaselineTrainFLOPs += float64(iters) * baselineIterFLOPs
	}
	return out
}
