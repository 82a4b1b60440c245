package cluster

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/models"
)

const (
	imagenetSize = 1280000
	hour         = 3600.0
	minute       = 60.0
)

// anchor checks a simulated time against a paper-published wall-clock time.
// The simulator is calibrated, not fitted per-row, so a generous band is
// allowed; EXPERIMENTS.md reports exact residuals.
func anchor(t *testing.T, name string, est Estimate, paperSec float64) {
	t.Helper()
	if est.OOM {
		t.Errorf("%s: unexpected OOM", name)
		return
	}
	ratio := est.TotalSec / paperSec
	if ratio < 0.55 || ratio > 1.6 {
		t.Errorf("%s: simulated %.0fs vs paper %.0fs (ratio %.2f)", name, est.TotalSec, paperSec, ratio)
	}
}

// TestTable8AlexNetAnchors replays Table 8's AlexNet rows.
func TestTable8AlexNetAnchors(t *testing.T) {
	alex := models.AlexNetSpec()
	alexBN := models.AlexNetBNSpec()
	anchor(t, "B=256 K20 144h",
		Simulate(SingleDevice(TeslaK20), alex, 256, 100, imagenetSize), 144*hour)
	anchor(t, "B=512 DGX-1 6h10m",
		Simulate(DGX1(), alex, 512, 100, imagenetSize), 6*hour+10*minute)
	anchor(t, "B=4096 DGX-1 2h19m",
		Simulate(DGX1(), alex, 4096, 100, imagenetSize), 2*hour+19*minute)
	anchor(t, "B=32K 512 KNL 24m",
		Simulate(KNLCluster(512), alexBN, 32768, 100, imagenetSize), 24*minute)
	anchor(t, "B=32K 1024 CPU 11m",
		Simulate(CPUCluster(1024), alexBN, 32768, 100, imagenetSize), 11*minute)
}

// TestTable9ResNetAnchors replays Table 9's ResNet-50 rows.
func TestTable9ResNetAnchors(t *testing.T) {
	resnet := models.ResNet50Spec()
	anchor(t, "B=256 DGX-1 21h",
		Simulate(DGX1(), resnet, 256, 90, imagenetSize), 21*hour)
	anchor(t, "B=256 16 KNL 45h",
		Simulate(KNLCluster(16), resnet, 256, 90, imagenetSize), 45*hour)
	anchor(t, "B=8192 DGX-1 21h",
		Simulate(DGX1(), resnet, 8192, 90, imagenetSize), 21*hour)
	anchor(t, "B=8192 256 P100 1h",
		Simulate(P100Cluster(256), resnet, 8192, 90, imagenetSize), 1*hour)
	anchor(t, "B=16384 1024 CPU 52m",
		Simulate(CPUCluster(1024), resnet, 16384, 90, imagenetSize), 52*minute)
	anchor(t, "B=16000 1600 CPU 31m",
		Simulate(CPUCluster(1600), resnet, 16000, 90, imagenetSize), 31*minute)
	anchor(t, "B=32K 512 KNL 1h",
		Simulate(KNLCluster(512), resnet, 32768, 90, imagenetSize), 1*hour)
	anchor(t, "B=32K 1024 CPU 48m",
		Simulate(CPUCluster(1024), resnet, 32768, 90, imagenetSize), 48*minute)
	anchor(t, "B=32K 2048 KNL 20m",
		Simulate(KNLCluster(2048), resnet, 32768, 90, imagenetSize), 20*minute)
	anchor(t, "B=32K 64ep 2048 KNL 14m (Table 1)",
		Simulate(KNLCluster(2048), resnet, 32768, 64, imagenetSize), 14*minute)
}

// TestM40FourteenDays replays the paper's opening claim: 90-epoch ResNet-50
// on one M40 takes 14 days.
func TestM40FourteenDays(t *testing.T) {
	est := Simulate(SingleDevice(TeslaM40), models.ResNet50Spec(), 256, 90, imagenetSize)
	anchor(t, "M40 14 days", est, 14*24*hour)
}

// TestFigure3ThroughputShape checks Figure 3: single-M40 AlexNet throughput
// rises with per-device batch and hits OOM at 1024.
func TestFigure3ThroughputShape(t *testing.T) {
	curve := ThroughputCurve(TeslaM40, models.AlexNetSpec(), []int{32, 64, 128, 256, 512, 1024})
	for i := 1; i < len(curve); i++ {
		if curve[i].OOM {
			continue
		}
		if curve[i].ImagesSec <= curve[i-1].ImagesSec {
			t.Errorf("throughput not increasing at batch %d", curve[i].Batch)
		}
	}
	if curve[4].OOM {
		t.Error("batch 512 should fit on the M40 (Figure 3's peak point)")
	}
	if !curve[5].OOM {
		t.Error("batch 1024 should be out of memory on the M40 (Figure 3)")
	}
}

// TestWeakScalingShape: with batch scaled with the node count, the time
// keeps dropping (Table 2's promise) until communication saturates it.
func TestWeakScalingShape(t *testing.T) {
	resnet := models.ResNet50Spec()
	prev := Simulate(KNLCluster(64), resnet, 64*64, 90, imagenetSize).TotalSec
	for _, n := range []int{128, 256, 512, 1024, 2048} {
		cur := Simulate(KNLCluster(n), resnet, 64*n, 90, imagenetSize).TotalSec
		if cur >= prev {
			t.Errorf("weak scaling broke at %d nodes: %.0fs -> %.0fs", n, prev, cur)
		}
		prev = cur
	}
}

// TestAlexNetScalesWorseThanResNet: the comm fraction at equal node count
// must be higher for AlexNet (scaling ratio 24.6) than for ResNet-50 (308).
func TestAlexNetScalesWorseThanResNet(t *testing.T) {
	alex := Simulate(KNLCluster(512), models.AlexNetBNSpec(), 32768, 100, imagenetSize)
	res := Simulate(KNLCluster(512), models.ResNet50Spec(), 32768, 90, imagenetSize)
	alexComm := alex.CommSec / (alex.CompSec + alex.CommSec)
	resComm := res.CommSec / (res.CompSec + res.CommSec)
	if alexComm <= resComm {
		t.Errorf("AlexNet comm fraction %.3f should exceed ResNet's %.3f", alexComm, resComm)
	}
}

// TestLargeBatchReducesCommunication: Figure 7/Table 2's core claim — same
// hardware, bigger batch, fewer iterations, less total communication, less
// total time.
func TestLargeBatchReducesCommunication(t *testing.T) {
	c := P100Cluster(64)
	small := Simulate(c, models.ResNet50Spec(), 512, 90, imagenetSize)
	large := Simulate(c, models.ResNet50Spec(), 8192, 90, imagenetSize)
	if large.TotalSec >= small.TotalSec {
		t.Errorf("large batch slower: %.0fs vs %.0fs", large.TotalSec, small.TotalSec)
	}
	smallCommTotal := small.CommSec * float64(small.Iterations)
	largeCommTotal := large.CommSec * float64(large.Iterations)
	if largeCommTotal >= smallCommTotal {
		t.Errorf("large batch communicated more: %.0fs vs %.0fs", largeCommTotal, smallCommTotal)
	}
}

// TestLocalBatchPricesLargestShard pins the local-batch fix: when the
// global batch does not divide the device count, the busiest device holds
// ceil(batch/Count) images and sets the lockstep iteration time —
// truncation was silently dropping batch mod Count samples and overstating
// throughput.
func TestLocalBatchPricesLargestShard(t *testing.T) {
	resnet := models.ResNet50Spec()
	c := KNLCluster(8)
	est := Simulate(c, resnet, 100, 90, imagenetSize) // 100/8 = 12.5 -> 13
	if est.LocalBatch != 13 {
		t.Fatalf("LocalBatch = %d, want ceil(100/8) = 13", est.LocalBatch)
	}
	if est.MicroBatch != 13 {
		t.Fatalf("MicroBatch = %d, want 13 (fits)", est.MicroBatch)
	}
	// Compute must be priced on the 13-image busiest shard: B=100 and
	// B=104 over 8 devices share it, so their iteration compute matches.
	even := Simulate(c, resnet, 104, 90, imagenetSize) // 13 each, same shard
	if est.CompSec != even.CompSec {
		t.Fatalf("B=100 and B=104 on 8 devices share the 13-image busiest shard: CompSec %v vs %v", est.CompSec, even.CompSec)
	}
	// Throughput stays consistent with the priced iteration time.
	if want := 100 / (est.CompSec + est.CommSec); math.Abs(est.ImagesSec-want) > 1e-9*want {
		t.Fatalf("ImagesSec %v inconsistent with iteration time (want %v)", est.ImagesSec, want)
	}
	// More devices than samples degenerates to one image per busy device.
	tiny := Simulate(KNLCluster(256), resnet, 100, 90, imagenetSize)
	if tiny.LocalBatch != 1 {
		t.Fatalf("LocalBatch = %d with more devices than samples, want 1", tiny.LocalBatch)
	}
}

// TestOverlapBucketModel pins the bucket-level overlap pricing that
// replaced the max(0, t_comm − t_comp/2) heuristic: exposure is never
// negative, never exceeds the serial communication, stays at or below the
// old bound whenever that bound was positive, and the per-bucket timeline
// accounts every bucket with the first-layers bucket exposed.
func TestOverlapBucketModel(t *testing.T) {
	resnet := models.ResNet50Spec()
	for _, base := range []Cluster{KNLCluster(512), KNLCluster(2048), CPUCluster(1024), P100Cluster(256)} {
		plain := Simulate(base, resnet, 32768, 90, imagenetSize)
		over := base
		over.Overlap = true
		est := Simulate(over, resnet, 32768, 90, imagenetSize)
		if est.CommSec < 0 {
			t.Fatalf("%dx %s: negative exposed comm", base.Count, base.Machine.Name)
		}
		if est.CommSec > plain.CommSec {
			t.Fatalf("%dx %s: exposure %.6fs exceeds serial comm %.6fs", base.Count, base.Machine.Name, est.CommSec, plain.CommSec)
		}
		if old := plain.CommSec - plain.CompSec/2; old > 0 && est.CommSec > old {
			t.Errorf("%dx %s: bucket-level exposure %.6fs exceeds old heuristic bound %.6fs",
				base.Count, base.Machine.Name, est.CommSec, old)
		}
		if est.HiddenCommSec < 0 {
			t.Fatalf("%dx %s: negative hidden comm %.6fs", base.Count, base.Machine.Name, est.HiddenCommSec)
		}
		if got := est.HiddenCommSec + est.CommSec; math.Abs(got-plain.CommSec) > 1e-12+1e-9*plain.CommSec {
			t.Fatalf("%dx %s: hidden+exposed %.9fs != serial %.9fs", base.Count, base.Machine.Name, got, plain.CommSec)
		}
		if len(est.Buckets) != DefaultOverlapBuckets {
			t.Fatalf("timeline has %d buckets, want %d", len(est.Buckets), DefaultOverlapBuckets)
		}
		if est.Buckets[0].Hidden {
			t.Fatal("the first layers' bucket can never hide")
		}
		if est.BackwardSec <= 0 || est.BackwardSec >= est.CompSec {
			t.Fatalf("backward window %.6fs outside (0, CompSec=%.6fs)", est.BackwardSec, est.CompSec)
		}
	}
	// Hierarchical: the cross-tier pipeline (inter exchange of bucket k
	// over the intra reduce of bucket k+1) plus the backward window must
	// beat the serial two-tier composition.
	pod := DGXPod(8)
	plain := Simulate(pod, resnet, 8192, 90, imagenetSize)
	pod.Overlap = true
	est := Simulate(pod, resnet, 8192, 90, imagenetSize)
	if est.CommSec >= plain.CommSec {
		t.Fatalf("hierarchical overlap hid nothing: %.6fs vs serial %.6fs", est.CommSec, plain.CommSec)
	}
	if est.CommSec <= 0 {
		t.Fatal("the first layers' bucket stays exposed under hierarchy too")
	}
}

// TestOverlapBucketCountKnob: a finer bucket split can only expose less.
func TestOverlapBucketCountKnob(t *testing.T) {
	resnet := models.ResNet50Spec()
	prev := math.Inf(1)
	for _, k := range []int{1, 4, 16, 64} {
		c := KNLCluster(512)
		c.Overlap = true
		c.OverlapBuckets = k
		est := Simulate(c, resnet, 32768, 90, imagenetSize)
		if est.CommSec > prev+1e-12 {
			t.Fatalf("%d buckets exposed more than fewer buckets: %.6fs > %.6fs", k, est.CommSec, prev)
		}
		prev = est.CommSec
		if len(est.Buckets) != k {
			t.Fatalf("OverlapBuckets=%d produced %d buckets", k, len(est.Buckets))
		}
	}
}

// TestOverlapHidesCommunication: enabling overlap must never make an
// estimate slower, and must strictly help when comm is a visible fraction.
func TestOverlapHidesCommunication(t *testing.T) {
	base := KNLCluster(2048)
	over := base
	over.Overlap = true
	plain := Simulate(base, models.ResNet50Spec(), 32768, 90, imagenetSize)
	hidden := Simulate(over, models.ResNet50Spec(), 32768, 90, imagenetSize)
	if hidden.TotalSec > plain.TotalSec {
		t.Error("overlap made things slower")
	}
	if hidden.CommSec >= plain.CommSec {
		t.Error("overlap did not reduce exposed communication")
	}
}

// TestMicroBatchingKeepsOversizedBatchesRunning: Table 9's B=8192 single
// DGX-1 row requires gradient accumulation, not OOM failure.
func TestMicroBatchingKeepsOversizedBatches(t *testing.T) {
	est := Simulate(DGX1(), models.ResNet50Spec(), 8192, 90, imagenetSize)
	if est.OOM {
		t.Fatal("micro-batching should avoid OOM")
	}
	if est.MicroBatch >= est.LocalBatch {
		t.Fatalf("expected micro-batch < local batch 1024, got %d", est.MicroBatch)
	}
}

// TestSimulatePricesEveryMicroModel: every model cmd/train can train has a
// spec the pricer takes — micro-resnet and mlp, the models cmd/serve and the
// comm-bound benchmark workload run, had none — and the priced allreduce
// carries exactly the spec's |W|.
func TestSimulatePricesEveryMicroModel(t *testing.T) {
	micro := models.MicroConfig{Classes: 8, InH: 24, Width: 8}
	for _, name := range models.MicroNames() {
		spec, err := models.Micro(name, micro)
		if err != nil {
			t.Fatal(err)
		}
		c := KNLCluster(4)
		est := Simulate(c, spec, 64, 2, 4096)
		if est.OOM || !(est.CompSec > 0) || !(est.CommSec > 0) || !(est.ImagesSec > 0) {
			t.Errorf("%s: not priced: %+v", spec.Name, est)
		}
		h, _ := c.Hierarchy()
		if want := comm.ExpectedTierStats(h, nil, spec.WeightBytes()).Total(); est.Comm != want {
			t.Errorf("%s: allreduce %+v, want the closed form of %d weight bytes %+v", spec.Name, est.Comm, spec.WeightBytes(), want)
		}
	}
}

func TestMaxBatchPositive(t *testing.T) {
	for _, m := range []Machine{TeslaK20, TeslaM40, TeslaP100, KNL7250, Xeon8160} {
		for _, spec := range []*models.ModelSpec{models.AlexNetSpec(), models.ResNet50Spec()} {
			if MaxBatch(m, spec) < 16 {
				t.Errorf("%s cannot fit a small %s batch", m.Name, spec.Name)
			}
		}
	}
}

func TestProfileForFallsBack(t *testing.T) {
	p := KNL7250.ProfileFor("mlp-h64")
	if p != KNL7250.Families["default"] {
		t.Error("unknown model should use the default profile")
	}
	if KNL7250.ProfileFor("micro-resnet-w8") != KNL7250.Families["resnet"] {
		t.Error("micro-resnet should match the resnet family")
	}
}

func TestEfficiencyCurveMonotone(t *testing.T) {
	p := Profile{EffInf: 0.9, HalfBatch: 64}
	prev := 0.0
	for b := 1; b <= 4096; b *= 2 {
		e := p.Efficiency(float64(b))
		if e <= prev || e > p.EffInf {
			t.Fatalf("efficiency curve broken at b=%d: %v", b, e)
		}
		prev = e
	}
}

func TestEstimateStringRenders(t *testing.T) {
	est := Simulate(KNLCluster(2048), models.ResNet50Spec(), 32768, 90, imagenetSize)
	if est.String() == "" || est.Duration() <= 0 {
		t.Fatal("estimate rendering broken")
	}
}

// TestCentralBottleneck: at scale the parameter-server pattern must be far
// slower than ring allreduce (why the paper's systems use collectives).
func TestCentralBottleneck(t *testing.T) {
	ring := KNLCluster(1024)
	central := ring
	central.Algo = dist.Central
	r := Simulate(ring, models.ResNet50Spec(), 32768, 90, imagenetSize)
	c := Simulate(central, models.ResNet50Spec(), 32768, 90, imagenetSize)
	if c.CommSec < 10*r.CommSec {
		t.Errorf("central comm %.3fs should dwarf ring %.3fs at P=1024", c.CommSec, r.CommSec)
	}
}

// TestFiveSecondIdeal reproduces the introduction's thought experiment: at
// the fastest supercomputer's 2e17 FLOPS, 90-epoch ResNet-50 takes ~5s.
func TestFiveSecondIdeal(t *testing.T) {
	spec := models.ResNet50Spec()
	flops := float64(spec.FLOPsPerImage()) * 90 * float64(imagenetSize)
	sec := flops / 2e17
	if sec < 3 || sec > 7 {
		t.Errorf("ideal supercomputer time %.1fs, paper says ~5s", sec)
	}
}

var _ = comm.Table11 // keep the comm import for documentation linkage

// TestHierarchicalEstimate: a hierarchical cluster's schedule must match
// the closed-form two-tier counters, its aggregate their sum, and its
// communication time the two-fabric composition.
func TestHierarchicalEstimate(t *testing.T) {
	resnet := models.ResNet50Spec()
	c := DGXPod(4) // 32 P100s: 4 nodes x 8, NVLink ring intra, FDR tree inter
	est := Simulate(c, resnet, 8192, 90, imagenetSize)
	h, ok := c.Hierarchy()
	if !ok {
		t.Fatal("DGXPod should be hierarchical")
	}
	if h.Nodes != 4 || h.PerNode != 8 || h.Intra != dist.Ring || h.Inter != dist.Tree {
		t.Fatalf("DGXPod hierarchy = %+v", h)
	}
	if want := comm.ExpectedTierStats(h, nil, resnet.WeightBytes()); est.TierComm != want {
		t.Fatalf("TierComm = %+v, want %+v", est.TierComm, want)
	}
	if est.Comm != est.TierComm.Total() {
		t.Fatalf("Comm %+v != TierComm total %+v", est.Comm, est.TierComm.Total())
	}
	want := comm.AllreduceTime(c.IntraNetwork, c.Network, h, nil, resnet.WeightBytes())
	if est.CommSec != want {
		t.Fatalf("CommSec = %v, want two-fabric price %v", est.CommSec, want)
	}
}

// TestHierarchyCheaperThanFlatOnSameFabric: grouping the same devices into
// NVLink nodes must lower the per-iteration communication versus pushing
// the flat ring through FDR alone.
func TestHierarchyCheaperThanFlatOnSameFabric(t *testing.T) {
	resnet := models.ResNet50Spec()
	flat := Simulate(P100Cluster(32), resnet, 8192, 90, imagenetSize)
	pod := DGXPod(4)
	pod.IntraAlgo, pod.Algo = dist.Ring, dist.Ring
	hier := Simulate(pod, resnet, 8192, 90, imagenetSize)
	if hier.CommSec >= flat.CommSec {
		t.Fatalf("hierarchical comm %.4fs should beat flat FDR ring %.4fs", hier.CommSec, flat.CommSec)
	}
	if hier.CompSec != flat.CompSec {
		t.Fatalf("grouping must not change compute: %v vs %v", hier.CompSec, flat.CompSec)
	}
}

// TestFlatClusterHasZeroTierComm: flat estimates leave the tier split empty.
func TestFlatClusterHasZeroTierComm(t *testing.T) {
	est := Simulate(P100Cluster(8), models.ResNet50Spec(), 2048, 90, imagenetSize)
	if est.TierComm != (dist.TierStats{}) {
		t.Fatalf("flat cluster recorded tier stats %+v", est.TierComm)
	}
}

// TestHierarchyIndivisiblePanics: PerNode must divide Count.
func TestHierarchyIndivisiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 10 devices in nodes of 4")
		}
	}()
	c := DGXPod(1)
	c.Count = 10
	c.PerNode = 4
	c.Hierarchy()
}

// TestSimulateElasticHealthyFleet: with no evictions the elastic simulator
// reduces to one phase matching the plain (serial-communication) estimate.
func TestSimulateElasticHealthyFleet(t *testing.T) {
	c := KNLCluster(64)
	spec := models.ResNet50Spec()
	e := SimulateElastic(c, spec, 8192, 90, imagenetSize, nil)
	if len(e.Phases) != 1 {
		t.Fatalf("healthy run priced %d phases, want 1", len(e.Phases))
	}
	if e.Phases[0].Devices != 64 || e.Phases[0].Iterations != e.Baseline.Iterations {
		t.Fatalf("phase %+v does not cover the whole run at full strength", e.Phases[0])
	}
	if math.Abs(e.TotalSec-e.Baseline.TotalSec) > 1e-9*e.Baseline.TotalSec {
		t.Fatalf("healthy elastic total %.2fs != plain estimate %.2fs", e.TotalSec, e.Baseline.TotalSec)
	}
	if e.SlowdownPct() > 1e-9 {
		t.Fatalf("healthy run reports %.2f%% slowdown", e.SlowdownPct())
	}
}

// TestSimulateElasticDegradedRunSlower: losing devices mid-run costs wall
// clock (time-to-accuracy grows) and the phase timeline is consistent —
// iterations sum to the budget, worlds shrink by one per eviction,
// per-iteration time never improves as the fleet shrinks.
func TestSimulateElasticDegradedRunSlower(t *testing.T) {
	c := KNLCluster(64)
	spec := models.ResNet50Spec()
	e := SimulateElastic(c, spec, 8192, 90, imagenetSize, []float64{0.25, 0.5})
	if len(e.Phases) != 3 {
		t.Fatalf("2 evictions priced %d phases, want 3", len(e.Phases))
	}
	var iters int64
	for i, p := range e.Phases {
		iters += p.Iterations
		if want := 64 - i; p.Devices != want {
			t.Fatalf("phase %d at %d devices, want %d", i, p.Devices, want)
		}
		if i > 0 && p.IterSec() < e.Phases[i-1].IterSec() {
			t.Fatalf("phase %d got faster per iteration after losing a device: %v < %v",
				i, p.IterSec(), e.Phases[i-1].IterSec())
		}
	}
	if iters != e.Baseline.Iterations {
		t.Fatalf("phase iterations sum to %d, want the fixed budget %d", iters, e.Baseline.Iterations)
	}
	if e.TotalSec <= e.Baseline.TotalSec {
		t.Fatalf("degraded run %.2fs not slower than healthy %.2fs", e.TotalSec, e.Baseline.TotalSec)
	}
	if e.ImagesSec >= e.Baseline.ImagesSec {
		t.Fatalf("degraded throughput %.0f img/s not below healthy %.0f", e.ImagesSec, e.Baseline.ImagesSec)
	}
}

// TestSimulateElasticHierarchicalNodeDrain: draining a whole chassis from a
// DGX pod removes its node from the inter tier; the degraded phase is still
// cheaper in communication than pricing the same world flat on the cluster
// fabric.
func TestSimulateElasticHierarchicalNodeDrain(t *testing.T) {
	c := DGXPod(4) // 32 devices in 4 nodes of 8
	spec := models.ResNet50Spec()
	evict := make([]float64, 8) // lose all of the last chassis at half-time
	for i := range evict {
		evict[i] = 0.5
	}
	e := SimulateElastic(c, spec, 8192, 90, imagenetSize, evict)
	last := e.Phases[len(e.Phases)-1]
	if last.Devices != 24 {
		t.Fatalf("final world %d, want 24 (one chassis drained)", last.Devices)
	}
	want := comm.AllreduceTime(c.IntraNetwork, c.Network,
		dist.Hierarchy{Nodes: 4, PerNode: 8, Intra: c.IntraAlgo, Inter: c.Algo},
		[]int{8, 8, 8}, spec.WeightBytes())
	if math.Abs(last.CommSec-want) > 1e-12 {
		t.Fatalf("drained-chassis comm %.6fs, want degraded three-node price %.6fs", last.CommSec, want)
	}
	flat := c.Network.AllreduceTime(c.Algo, 24, spec.WeightBytes())
	if last.CommSec >= flat {
		t.Fatalf("hierarchical degraded comm %.6fs not cheaper than flat %.6fs on the cluster fabric", last.CommSec, flat)
	}
}
