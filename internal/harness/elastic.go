package harness

import (
	"fmt"
	"slices"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/models"
)

// elasticStudySteps is the study's step budget: two healthy steps, the
// death at step 2, two failed recoveries (EvictAfter = 2) closing step 3
// with the eviction, and two clean steps on the shrunken world.
const elasticStudySteps = 6

// ElasticityStudy drives the engine's elastic membership (dist.Config.
// Elastic) through a scripted preemption for one fleet per topology: a
// worker (for the hierarchy: a whole node) dies permanently at step 2, is
// evicted after two consecutive failed recoveries, the shards rebalance
// over the survivors, and training continues at the smaller world size. The
// table reports the steps-to-eviction, the world-size timeline, the
// per-step schedule at P versus the degraded world (cross-checked against
// comm.ExpectedTierStats at the surviving node sizes), and the comm-bound
// throughput of both worlds on FDR InfiniBand. Everything is
// deterministic — exact schedule arithmetic on a seeded micro model — so
// the docs-drift job regenerates this section bit-identically alongside
// the analytic exhibits.
func ElasticityStudy() (*Table, error) {
	const workers, batch = 4, 64
	t := &Table{
		ID: "Elasticity study", Title: fmt.Sprintf("Evicting a dead worker and continuing on the survivors (P=%d, evict after 2 failed recoveries)", workers),
		Header: []string{"topology", "dead", "evicted at", "world timeline", "rounds @P", "rounds degraded", "model", "FDR img/s @P -> degraded"},
	}
	net := models.MLPSpec(models.MicroConfig{Classes: 4, InC: 3, InH: 8, InW: 8, Width: 4})
	f := newFixture(net.Factory(), 1, studySynth(8, 64), batch)
	_, nparams := f.paramElems()
	fdr := func(s dist.CommStats) float64 {
		return float64(batch) / comm.MellanoxFDR.TimeFromStats(s) / 1e6
	}
	for _, h := range studyTopologies(workers) {
		// A flat world loses its last worker; the hierarchy its whole last
		// node, which then leaves the inter tier.
		dead, deadLabel := map[int]int64{}, fmt.Sprintf("worker %d @ step 2", workers-1)
		if h.PerNode > 1 {
			deadLabel = fmt.Sprintf("node %d @ step 2", h.Nodes-1)
		}
		for w := workers - h.PerNode; w < workers; w++ {
			dead[w] = 2
		}
		var m dist.MembershipStats
		var world int
		steps, err := f.run(h, dist.Config{
			Faults:  &dist.FaultPlan{Dead: dead},
			Elastic: &dist.Elastic{EvictAfter: 2},
		}, elasticStudySteps, func(e *dist.Engine) { m, world = e.Membership(), e.LiveWorkers() })
		if err != nil {
			return nil, err
		}
		evictStep := slices.IndexFunc(steps, func(r dist.Report) bool { return r.Membership.Evictions > 0 })
		// The last clean full-strength step, and a clean step on the
		// survivors.
		healthy, degraded := steps[1], steps[elasticStudySteps-1]
		t.Add(topologyLabel(h),
			deadLabel,
			fmt.Sprintf("step %d", evictStep),
			m.Timeline(),
			fmt.Sprintf("%d", healthy.Comm.Steps),
			fmt.Sprintf("%d", degraded.Comm.Steps),
			matchCell(degraded.TierComm, comm.ExpectedTierStats(h, h.FrontFilled(world), 4*int64(nparams))),
			fmt.Sprintf("%.2fM -> %.2fM", fdr(healthy.Comm), fdr(degraded.Comm)))
	}
	t.Note("A dead worker fails recovery for 2 consecutive steps and is evicted at the end of the second; the shard spans rebalance over the survivors (data.Spans) and the master re-broadcasts the weights, so every later step is bit-identical to a fresh run at the smaller world size (tested).")
	t.Note("The hierarchical row kills both workers of node 1: the drained node leaves the inter tier, so the degraded schedule is a single node's intra ring with no leader exchange.")
	t.Note("The model column cross-checks the degraded step against comm.ExpectedTierStats at the surviving node sizes (a flat world is one worker per node); \"exact\" means every counter matches.")
	t.Note("FDR column: comm-bound millions of images/sec (batch %d over the alpha-beta step time) before the death and after the eviction — the surviving fleet's smaller collective claws back some of the lost capacity.", batch)
	return t, nil
}
