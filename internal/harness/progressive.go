package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/models"
)

// ProgressiveResolutionStudy measures the ENTR hypothesis end to end on the
// synthetic task: train the GAP-headed micro conv net at a fixed native
// resolution and under a progressive schedule that spends the early epochs
// at reduced-area inputs, then compare time-to-accuracy. For each
// schedule it (a) verifies the dynamic-shape identity contract — a run that
// switches resolution mid-training must reproduce the P=1 trajectory
// bit-identically at P=4 flat, P=4 hierarchical and P=4 overlapped with a
// pinned shard split — (b) trains to completion at P=4 and reports accuracy
// and measured wall clock, and (c) prices the same curriculum analytically
// with cluster.SimulateProgressive, whose per-phase FLOP curve comes from
// the spec replayed at each phase resolution (models.ModelSpec.At). A
// negative control confirms the progressive trajectory differs bitwise from
// the fixed one — without it the identity column could pass with the
// schedule dead.
//
// Identity cells are exact reproducible arithmetic; the wall cells are
// measured, so the table is Volatile (docs-drift compares its
// digit-normalized shape).
func ProgressiveResolutionStudy() (*Table, error) {
	t := &Table{
		ID:       "ProgressiveResolution study",
		Title:    "Progressive-resolution training: dynamic input shapes end to end (P=4, micro conv net)",
		Header:   []string{"schedule", "identity (P, topology)", "test acc", "final loss", "train wall", "train flops/img by phase", "analytic wall", "analytic flop savings"},
		Volatile: true,
	}
	ds := studySynth(24, 128)
	// The GAP-headed all-conv micro model: its parameter count is
	// resolution-invariant (the schedule's precondition), and it has no
	// batch norm or dropout, so cross-P bit-identity is attainable.
	spec := models.MicroConvNetSpec(models.MicroConfig{Classes: 4, InC: 3, InH: 24, InW: 24, Width: 4})
	progressiveNet := spec.Factory()
	const epochs, batch = 10, 64

	rows := []struct {
		label, schedule string
		// identitySchedule is a short variant whose resolution switch lands
		// inside the 3-epoch identity runs.
		identitySchedule string
	}{
		{"fixed 24x24", "24x24", "24x24"},
		{"progressive 16→24", "16x16@0-3,24x24@4+", "16x16@0-0,24x24@1+"},
	}
	var trajectories [2][]float64
	for i, row := range rows {
		sched, err := data.ParseResolutionSchedule(row.schedule)
		if err != nil {
			return nil, err
		}
		identitySched, err := data.ParseResolutionSchedule(row.identitySchedule)
		if err != nil {
			return nil, err
		}
		identity, _, err := trajectoryIdentity(core.Config{
			Model: progressiveNet, Resolutions: identitySched,
			Batch: 64, Epochs: 3, Method: core.BaselineSGD, BaseLR: 0.1, Seed: 9,
		}, ds)
		if err != nil {
			return nil, err
		}

		start := time.Now()
		res, err := core.Train(core.Config{
			Model: progressiveNet, Workers: 4, Resolutions: sched,
			Batch: batch, Epochs: epochs, Method: core.BaselineSGD,
			BaseLR: 0.1, Seed: 1,
		}, ds)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		trajectories[i] = make([]float64, len(res.History))
		for e, h := range res.History {
			trajectories[i][e] = h.TrainLoss
		}

		est := cluster.SimulateProgressive(cluster.KNLCluster(4), spec, batch, epochs, ds.Train.Len(), sched)
		var phases []string
		for _, p := range est.Phases {
			phases = append(phases, fmt.Sprintf("%dx%d: %.2fM", p.H, p.W, float64(p.TrainFLOPsPerImage)/1e6))
		}
		t.Add(row.label, identity,
			fmt.Sprintf("%.3f", res.TestAcc),
			fmt.Sprintf("%.4f", res.FinalLoss),
			fmt.Sprintf("%.2fs", wall.Seconds()),
			strings.Join(phases, ", "),
			fmt.Sprintf("%.2fms", est.TotalSec*1e3),
			fmt.Sprintf("%.1f%%", est.FLOPSavingsPct()))
	}

	if err := mustDiffer(trajectories[0], trajectories[1],
		"progressive trajectory is bit-identical to fixed — the resolution schedule is not reaching the trainer"); err != nil {
		return nil, err
	}

	entrSched, err := data.ParseResolutionSchedule("112x112@0-29,224x224@30+")
	if err != nil {
		return nil, err
	}
	entr := cluster.SimulateProgressive(cluster.DGXPod(4), models.ResNet50Spec(), 2048, 90, 1281167, entrSched)
	t.Note("Identity column is exact: a 3-epoch run whose input resolution switches mid-training (16x16 for epoch 0, native 24x24 after) must reproduce the P=1 loss trajectory bitwise at P=4 flat, P=4 hierarchical (2x2) and P=4 overlapped (pinned Shards=4). Every replica derives the epoch's (h,w) from the same schedule and batches are resized with the deterministic area/bilinear kernel before dispatch, so decomposition stays invisible while shapes change. A negative control confirms progressive ≠ fixed bitwise.")
	t.Note("Time-to-accuracy is the ENTR claim: early epochs at reduced-area inputs cost proportionally fewer per-image FLOPs (the phase column replays the spec at each resolution — conv cost scales with the output area, GAP head so |W| never changes), so the curriculum — the first four of ten epochs at 16x16, 4/9 of the native area, mirroring ENTR's 112x112 opening third — should approach the fixed run's accuracy in less wall time. Downscale gently: a 12x12 opening (quarter area) overfits scale-specific features that do not survive the switch on this micro task.")
	t.Note("Analytic columns price the same schedules with cluster.SimulateProgressive (communication stays at the canonical weight volume; compute is repriced per phase). At paper scale the curriculum 112x112@0-29,224x224@30+ on ResNet-50 (DGX pod of 4, B=2048, 90 epochs) prices %.0f%% faster than fixed 224x224 with %.0f%% of the training FLOPs avoided.", entr.SpeedupPct(), entr.FLOPSavingsPct())
	return t, nil
}
