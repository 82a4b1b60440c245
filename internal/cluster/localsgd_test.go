package cluster

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/models"
)

// TestSimulateLocalSGDMatchesSimulateAtH1: with H=1 every step syncs, so
// the local-SGD estimate degenerates to the non-overlapped every-step
// Estimate — same compute, same per-round communication, same throughput.
func TestSimulateLocalSGDMatchesSimulateAtH1(t *testing.T) {
	c := KNLCluster(64)
	spec := models.ResNet50Spec()
	sim := Simulate(c, spec, 2048, 1, imagenetSize)
	loc := SimulateLocalSGD(c, spec, 2048, 1, imagenetSize, 1, 0)
	if loc.CompSec != sim.CompSec {
		t.Fatalf("compute model diverged: %v vs %v", loc.CompSec, sim.CompSec)
	}
	if loc.SyncSec != sim.CommSec {
		t.Fatalf("per-round comm diverged: %v vs %v", loc.SyncSec, sim.CommSec)
	}
	if loc.ImagesSec != sim.ImagesSec || loc.TotalSec != sim.TotalSec {
		t.Fatalf("H=1 throughput %v/%v, want the every-step %v/%v",
			loc.ImagesSec, loc.TotalSec, sim.ImagesSec, sim.TotalSec)
	}
	if loc.Speedup != 1 {
		t.Fatalf("H=1 speedup %v, want exactly 1", loc.Speedup)
	}
	if loc.SyncRounds != loc.Iterations || loc.IntraRounds != 0 {
		t.Fatalf("H=1 rounds %d/%d for %d iterations", loc.SyncRounds, loc.IntraRounds, loc.Iterations)
	}
}

// TestSimulateLocalSGDCommScalesAsOneOverH: on a comm-bound cluster the
// whole-run communication bytes are exactly 1/H of the every-step run
// whenever H divides the iteration count, and throughput rises
// monotonically toward the compute-bound ceiling.
func TestSimulateLocalSGDCommScalesAsOneOverH(t *testing.T) {
	c := KNLCluster(64)
	spec := models.ResNet50Spec()
	const batch, epochs = 2048, 1
	dataset := batch * 64 // 64 iterations: divisible by every H below
	base := SimulateLocalSGD(c, spec, batch, epochs, dataset, 1, 0)
	prev := base
	for _, h := range []int{2, 4, 8} {
		est := SimulateLocalSGD(c, spec, batch, epochs, dataset, h, 0)
		if est.Comm.Bytes*int64(h) != base.Comm.Bytes {
			t.Fatalf("H=%d: comm bytes %d not exactly 1/H of %d", h, est.Comm.Bytes, base.Comm.Bytes)
		}
		if est.ImagesSec <= prev.ImagesSec || est.Speedup <= prev.Speedup {
			t.Fatalf("H=%d did not improve on H=%d: %v vs %v img/s", h, prev.SyncEvery, est.ImagesSec, prev.ImagesSec)
		}
		// The amortized step never beats the compute floor.
		if est.StepSec <= est.CompSec {
			t.Fatalf("H=%d amortized step %v at or below compute floor %v", h, est.StepSec, est.CompSec)
		}
		// Closed-form consistency with the engine's round counters.
		if est.SyncRounds != comm.LocalSGDSyncRounds(est.Iterations, h) {
			t.Fatalf("H=%d sync rounds %d, want %d", h, est.SyncRounds, comm.LocalSGDSyncRounds(est.Iterations, h))
		}
		prev = est
	}
}

// TestSimulateLocalSGDHierarchical: on a pod the tier split accounts for
// everything (Total == Comm), and enabling the intra tier adds intra-fabric
// rounds — time and bytes — without touching the inter tier.
func TestSimulateLocalSGDHierarchical(t *testing.T) {
	c := DGXPod(4)
	spec := models.ResNet50Spec()
	const batch, epochs = 1024, 1
	dataset := batch * 32

	flat := SimulateLocalSGD(c, spec, batch, epochs, dataset, 8, 0)
	if flat.TierComm.Total() != flat.Comm {
		t.Fatalf("tier split %+v does not sum to %+v", flat.TierComm, flat.Comm)
	}
	if flat.IntraSec != 0 || flat.IntraRounds != 0 {
		t.Fatalf("intra tier disabled but priced: %v sec x %d rounds", flat.IntraSec, flat.IntraRounds)
	}

	layered := SimulateLocalSGD(c, spec, batch, epochs, dataset, 8, 2)
	if layered.TierComm.Inter != flat.TierComm.Inter {
		t.Fatalf("intra rounds leaked onto the inter tier: %+v vs %+v", layered.TierComm.Inter, flat.TierComm.Inter)
	}
	if layered.TierComm.Intra.Bytes <= flat.TierComm.Intra.Bytes {
		t.Fatalf("intra rounds added no intra bytes: %+v vs %+v", layered.TierComm.Intra, flat.TierComm.Intra)
	}
	if layered.IntraSec <= 0 || layered.TotalSec <= flat.TotalSec {
		t.Fatalf("intra rounds cost nothing: %v sec, total %v vs %v", layered.IntraSec, layered.TotalSec, flat.TotalSec)
	}
	if want := comm.LocalSGDIntraRounds(layered.Iterations, 8, 2); layered.IntraRounds != want {
		t.Fatalf("intra rounds %d, want %d", layered.IntraRounds, want)
	}
}

// TestSimulateLocalSGDValidation pins the parameter contract: H >= 1, the
// intra period divides H, and the intermediate tier needs a hierarchy.
func TestSimulateLocalSGDValidation(t *testing.T) {
	spec := models.ResNet50Spec()
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("syncEvery=0", func() { SimulateLocalSGD(KNLCluster(4), spec, 256, 1, 25600, 0, 0) })
	mustPanic("Hi does not divide H", func() { SimulateLocalSGD(DGXPod(2), spec, 256, 1, 25600, 4, 3) })
	mustPanic("intra tier on flat cluster", func() { SimulateLocalSGD(KNLCluster(4), spec, 256, 1, 25600, 4, 2) })
}

// TestLocalSGDCurve: the sweep emits one estimate per requested period, in
// order, with no intermediate tier.
func TestLocalSGDCurve(t *testing.T) {
	hs := []int{1, 2, 4, 8, 16}
	curve := LocalSGDCurve(KNLCluster(64), models.ResNet50Spec(), 2048, 1, imagenetSize, hs)
	if len(curve) != len(hs) {
		t.Fatalf("%d points for %d periods", len(curve), len(hs))
	}
	for i, est := range curve {
		if est.SyncEvery != hs[i] || est.IntraSyncEvery != 0 {
			t.Fatalf("point %d carries H=%d Hi=%d, want H=%d Hi=0", i, est.SyncEvery, est.IntraSyncEvery, hs[i])
		}
	}
}
