package cluster

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/models"
)

func mustSchedule(t *testing.T, s string) *data.ResolutionSchedule {
	t.Helper()
	sched, err := data.ParseResolutionSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// A constant schedule at the canonical resolution prices identically to the
// plain (non-overlapped) simulator — same wall clock, same FLOPs.
func TestSimulateProgressiveConstantMatchesSimulate(t *testing.T) {
	c := DGXPod(2)
	c.Overlap = false
	spec := models.ResNet50Spec()
	est := SimulateProgressive(c, spec, 1024, 90, 1281167, mustSchedule(t, "224x224"))
	if len(est.Phases) != 1 {
		t.Fatalf("constant schedule produced %d phases", len(est.Phases))
	}
	if math.Abs(est.TotalSec-est.Baseline.TotalSec) > 1e-9*est.Baseline.TotalSec {
		t.Errorf("constant schedule TotalSec %g != fixed %g", est.TotalSec, est.Baseline.TotalSec)
	}
	if est.SpeedupPct() != 0 || math.Abs(est.FLOPSavingsPct()) > 1e-12 {
		t.Errorf("constant schedule should save nothing: speedup %g%%, flops %g%%",
			est.SpeedupPct(), est.FLOPSavingsPct())
	}
	if est.Phases[0].Iterations != est.Baseline.Iterations {
		t.Errorf("phase iterations %d != fixed %d", est.Phases[0].Iterations, est.Baseline.Iterations)
	}
}

// The ENTR curriculum on ResNet-50 — half resolution for the first third of
// the budget — must price cheaper than fixed 224x224, phase iterations must
// tile the fixed budget exactly, and the low-resolution phase must run
// roughly 4x cheaper per image.
func TestSimulateProgressiveENTRCurriculum(t *testing.T) {
	c := DGXPod(4)
	spec := models.ResNet50Spec()
	sched := mustSchedule(t, "112x112@0-29,224x224@30+")
	est := SimulateProgressive(c, spec, 2048, 90, 1281167, sched)
	if len(est.Phases) != 2 {
		t.Fatalf("want 2 phases, got %d", len(est.Phases))
	}
	var iters int64
	for _, p := range est.Phases {
		iters += p.Iterations
		if p.CommSec != est.Phases[0].CommSec {
			t.Error("communication must be resolution-invariant across phases")
		}
	}
	if iters != est.Baseline.Iterations {
		t.Errorf("phase iterations sum %d != fixed %d", iters, est.Baseline.Iterations)
	}
	if est.TotalSec >= est.Baseline.TotalSec {
		t.Errorf("curriculum %gs should beat fixed %gs", est.TotalSec, est.Baseline.TotalSec)
	}
	if s := est.SpeedupPct(); s <= 0 || s >= 100 {
		t.Errorf("speedup %g%% out of range", s)
	}
	ratio := float64(est.Phases[1].TrainFLOPsPerImage) / float64(est.Phases[0].TrainFLOPsPerImage)
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("per-image FLOP ratio across phases = %.2f, want ~4", ratio)
	}
	// A third of the epochs at ~quarter cost saves roughly a quarter of
	// the FLOPs.
	if s := est.FLOPSavingsPct(); s < 15 || s > 35 {
		t.Errorf("FLOP savings %g%%, want ~25%%", s)
	}
}

// Flatten→fc models cannot train under a resolution schedule (|W| changes
// with the input); the simulator rejects them loudly.
func TestSimulateProgressiveRejectsResolutionDependentParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for resolution-dependent parameter count")
		}
	}()
	spec := models.MicroAlexNetSpec(models.MicroConfig{Classes: 8, InH: 24, Width: 8})
	SimulateProgressive(KNLCluster(4), spec, 256, 10, 4096, mustSchedule(t, "12x12@0-4,24x24@5+"))
}

// The micro-convnet curriculum the measured study runs: sanity-check phase
// accounting on the toy scale too.
func TestSimulateProgressiveMicroConvNet(t *testing.T) {
	spec := models.MicroConvNetSpec(models.MicroConfig{Classes: 8, InH: 24, Width: 8})
	est := SimulateProgressive(KNLCluster(4), spec, 256, 12, 4096, mustSchedule(t, "12x12@0-5,24x24@6+"))
	if len(est.Phases) != 2 || est.Phases[0].H != 12 || est.Phases[1].H != 24 {
		t.Fatalf("unexpected phases %+v", est.Phases)
	}
	if est.Phases[0].CompSec >= est.Phases[1].CompSec {
		t.Error("12x12 phase should compute faster than 24x24")
	}
	if est.TotalSec >= est.Baseline.TotalSec {
		t.Error("curriculum should be cheaper than fixed")
	}
}
