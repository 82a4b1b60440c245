package dist_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/models"
)

// TestMicroBatchReducesOncePerStep: a step whose shards run as several
// micro-batches still reduces once — its ledger equals the same step's with
// whole shards, and the cluster twin's price of one iteration
// (cluster.Simulate, i.e. comm.ExpectedTierStats of the weight payload), on
// a flat ring and on 2×2.
func TestMicroBatchReducesOncePerStep(t *testing.T) {
	x, labels, factory := testTask(64)
	spec := models.MLPSpec(models.MicroConfig{Classes: 4, InC: 3, InH: 8, InW: 8, Width: 4})
	hier := dist.NewHierarchy(2, 2)
	for _, tc := range []struct {
		name string
		cfg  dist.Config
		twin cluster.Cluster
	}{
		{"ring", dist.Config{Algo: dist.Ring},
			cluster.Cluster{Machine: cluster.Xeon8160, Count: 4, Network: cluster.OmniPath, Algo: dist.Ring}},
		{"2x2", dist.Config{Topology: &hier},
			cluster.Cluster{Machine: cluster.Xeon8160, Count: 4, Network: cluster.OmniPath, Algo: hier.Inter,
				PerNode: 2, IntraNetwork: cluster.NVLinkHybrid, IntraAlgo: hier.Intra}},
	} {
		step := func(micro int) dist.Report {
			cfg := tc.cfg
			cfg.MicroBatch = micro
			e := newEngine(cfg, 4, factory)
			defer e.Close()
			if _, err := e.ComputeGradient(x, labels); err != nil {
				t.Fatal(err)
			}
			if err := e.BroadcastWeights(); err != nil {
				t.Fatal(err)
			}
			if e.Steps() != 1 {
				t.Fatalf("%s: MicroBatch %d: one step counted as %d", tc.name, micro, e.Steps())
			}
			return e.StepReport()
		}
		whole, micro := step(0), step(5) // 16-row shards as 5, 5, 5 and 1 rows
		est := cluster.Simulate(tc.twin, spec, 64, 1, 256)
		if micro.Comm != whole.Comm || micro.TierComm != whole.TierComm {
			t.Errorf("%s: micro-batched step %+v, whole shards %+v", tc.name, micro.Comm, whole.Comm)
		}
		if micro.Comm != est.Comm || micro.TierComm != est.TierComm {
			t.Errorf("%s: micro-batched step %+v (tiers %+v), twin %+v (tiers %+v)", tc.name, micro.Comm, micro.TierComm, est.Comm, est.TierComm)
		}
		if h, _ := tc.twin.Hierarchy(); est.Comm != comm.ExpectedTierStats(h, nil, spec.WeightBytes()).Total() {
			t.Errorf("%s: twin %+v is not the closed form", tc.name, est.Comm)
		}
	}
}
