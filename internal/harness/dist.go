package harness

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/dist"
)

// AllreduceStudy drives the real synchronous engine — shard forward/
// backward, gradient allreduce, weight broadcast — for one training step
// under each topology and tabulates the observed per-step CommStats next
// to internal/comm's closed-form schedule and its alpha-beta price on FDR
// InfiniBand, over four workers. It is the measured companion of Table 11
// and Figure 9: the counters the analytic exhibits model, recorded from
// execution.
func AllreduceStudy(s *Setup) (*Table, error) {
	const workers = 4
	t := &Table{
		ID: "Allreduce study", Title: fmt.Sprintf("One measured engine step per topology (P=%d, micro-AlexNet)", workers),
		Header: []string{"algorithm", "messages", "payload MB", "latency rounds", "model msgs", "model rounds", "FDR time"},
	}
	f := newFixture(s.Spec().Factory(), s.Seed, s.Dataset(), min(256, s.Dataset().Train.Len()))
	_, nparams := f.paramElems()
	row := func(label string, step, model dist.CommStats) {
		t.Add(label,
			fmt.Sprintf("%d", step.Messages),
			fmt.Sprintf("%.2f", float64(step.Bytes)/1e6),
			fmt.Sprintf("%d", step.Steps),
			fmt.Sprintf("%d", model.Messages),
			fmt.Sprintf("%d", model.Steps),
			fmt.Sprintf("%.2fms", 1e3*comm.MellanoxFDR.TimeFromStats(step)))
	}
	for _, h := range studyTopologies(workers) {
		r, err := f.step(h, dist.Config{})
		if err != nil {
			return nil, err
		}
		tiers, model := r.TierComm, comm.ExpectedTierStats(h, nil, 4*int64(nparams))
		if h.PerNode > 1 {
			// The composed two-tier schedule over the same workers: the
			// reduced values are bit-identical to the flat rows (tested);
			// only the accounting splits by fabric, so print the split.
			row(fmt.Sprintf("%v intra", h), tiers.Intra, model.Intra)
			row(fmt.Sprintf("%v inter", h), tiers.Inter, model.Inter)
			row(fmt.Sprintf("%v total", h), tiers.Total(), model.Total())
			continue
		}
		row(topologyLabel(h), tiers.Total(), model.Total())
	}
	t.Note("Observed counters come from the executed schedule (internal/dist); the model columns are comm.ExpectedStats / comm.ExpectedTierStats closed forms.")
	t.Note("Ring trades P× more (small) messages for per-link payloads 1/P the size — the bandwidth optimality of Table 2's systems.")
	t.Note("Hierarchical rows split one composed allreduce by fabric tier; on real clusters the intra tier rides a faster local fabric (NVLink/on-node), which is the point of the split — the FDR column prices both tiers on one fabric only for comparability.")
	return t, nil
}
