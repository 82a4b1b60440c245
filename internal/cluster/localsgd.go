package cluster

import (
	"repro/internal/comm"
	"repro/internal/models"
)

// LocalSGDEstimate is the priced outcome of one local-SGD training run: the
// communication-for-computation tradeoff of dist.Config.SyncEvery, on the
// same machine/fabric model Simulate uses for the every-step path. Workers
// step locally and synchronize weights every H steps, so the per-iteration
// communication term is amortized by 1/H while the compute term is
// unchanged; hierarchical clusters can additionally average inside each
// node every Hi steps, priced on the intra fabric alone. Sync rounds are
// barriers — nothing overlaps with the backward pass — so the Overlap fields
// of the cluster are ignored and every communication second is exposed.
type LocalSGDEstimate struct {
	// Estimate is the run as priced, read per local step: CompSec is the
	// same model as Simulate, CommSec the amortized communication a step
	// pays (StepSec − CompSec). Comm is the whole-run closed-form schedule
	// rather than one allreduce's — floor(Iterations/H) full rounds (plus
	// intra rounds for hierarchical clusters), exactly what a dist engine
	// driven through LocalStep records — and TierComm its per-tier split.
	Estimate

	// SyncEvery is H: local optimizer steps per full weight-averaging
	// round. IntraSyncEvery is the optional intra-node period Hi
	// (0 disables the intermediate tier).
	SyncEvery      int
	IntraSyncEvery int
	// SyncRounds and IntraRounds are the closed-form round counts the
	// engine's LocalSGDStats reports for the same run length.
	SyncRounds  int64
	IntraRounds int64

	SyncSec  float64 // one full weight-averaging round, all tiers
	IntraSec float64 // one intra-node-only round (0 unless IntraSyncEvery)
	// StepSec is the amortized wall time per local step:
	// CompSec + SyncSec/H + IntraSec·(intra rounds per step).
	StepSec float64
	// Speedup is ImagesSec relative to the same cluster at H=1 (the
	// every-step baseline); 1 at H=1 by construction.
	Speedup float64
}

// SimulateLocalSGD prices one fixed-epoch local-SGD run of spec on c:
// syncEvery local steps between full weight averages, optionally an
// intra-node average every intraSyncEvery steps on hierarchical clusters.
// syncEvery = 1 (with intraSyncEvery = 0) reproduces the non-overlapped
// every-step Estimate exactly — same compute model, same per-round
// schedule, communication amortized by 1/1.
func SimulateLocalSGD(c Cluster, spec *models.ModelSpec, batch, epochs, datasetSize, syncEvery, intraSyncEvery int) LocalSGDEstimate {
	if syncEvery < 1 {
		panic("cluster: SimulateLocalSGD requires syncEvery >= 1")
	}
	if intraSyncEvery < 0 || (intraSyncEvery > 0 && syncEvery%intraSyncEvery != 0) {
		panic("cluster: intraSyncEvery must divide syncEvery")
	}
	h, tiered := c.Hierarchy()
	if intraSyncEvery > 0 && !tiered {
		panic("cluster: intraSyncEvery requires a hierarchical cluster (PerNode > 1)")
	}
	c.Overlap = false
	e := LocalSGDEstimate{
		Estimate:  Simulate(c, spec, batch, epochs, datasetSize),
		SyncEvery: syncEvery, IntraSyncEvery: intraSyncEvery,
	}
	e.SyncRounds = comm.LocalSGDSyncRounds(e.Iterations, syncEvery)
	e.IntraRounds = comm.LocalSGDIntraRounds(e.Iterations, syncEvery, intraSyncEvery)
	if e.OOM {
		return e
	}
	e.SyncSec = e.CommSec
	if intraSyncEvery > 0 {
		// An intra-only round is the allreduce of one node alone, every
		// node at once on its own fabric.
		c.Count = c.PerNode
		e.IntraSec = pricePhase(c, spec, batch, c.Count).CommSec
	}
	// A weight average runs the same schedule as a gradient allreduce —
	// only the payload's meaning differs — so the run's counters are the
	// local-SGD closed form over the cluster's topology: every round
	// crosses the intra tier, only the full ones reach the node leaders.
	tiers := comm.ExpectedLocalSGDTierStats(h, nil, syncEvery, intraSyncEvery, e.Iterations, int(spec.ParamCount()), 0, nil)
	e.Comm = tiers.Total()
	if tiered {
		e.TierComm = tiers
	}

	// Sync rounds are barriers: total time is every step's compute plus
	// every round's exposed communication, nothing hidden.
	e.TotalSec = float64(e.Iterations)*e.CompSec +
		float64(e.SyncRounds)*e.SyncSec + float64(e.IntraRounds)*e.IntraSec
	e.ImagesSec, e.CommSec = 0, 0
	if e.Iterations > 0 {
		e.StepSec = e.TotalSec / float64(e.Iterations)
		e.ImagesSec = float64(batch) / e.StepSec
		e.CommSec = e.StepSec - e.CompSec
	}

	// Speedup against the every-step baseline on the same cluster: at
	// H=1 the amortized step is CompSec + SyncSec, the non-overlapped
	// synchronous iteration.
	base := e.CompSec + e.SyncSec
	if base > 0 && e.StepSec > 0 {
		e.Speedup = base / e.StepSec
	}
	return e
}

// LocalSGDCurve sweeps the synchronization period: one estimate per H in
// hs, no intermediate tier — the throughput-vs-H curve cmd/simulate and
// the commstudy example print.
func LocalSGDCurve(c Cluster, spec *models.ModelSpec, batch, epochs, datasetSize int, hs []int) []LocalSGDEstimate {
	out := make([]LocalSGDEstimate, 0, len(hs))
	for _, h := range hs {
		out = append(out, SimulateLocalSGD(c, spec, batch, epochs, datasetSize, h, 0))
	}
	return out
}
