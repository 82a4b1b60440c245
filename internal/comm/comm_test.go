package comm

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/rng"
)

func TestTable11Profiles(t *testing.T) {
	nets := Table11()
	if len(nets) != 3 {
		t.Fatalf("Table 11 has %d rows, want 3", len(nets))
	}
	// Exact constants from the paper.
	if MellanoxFDR.Alpha != 0.7e-6 || MellanoxFDR.Beta != 0.2e-9 {
		t.Error("Mellanox FDR constants wrong")
	}
	if Intel10GbE.Alpha != 7.2e-6 || Intel10GbE.Beta != 0.9e-9 {
		t.Error("10GbE constants wrong")
	}
	// The paper's ordering claim: latency >> 1/bandwidth per byte, i.e.
	// alpha is thousands of betas.
	for _, n := range nets {
		if n.Alpha/n.Beta < 1000 {
			t.Errorf("%s: alpha/beta = %v, expected latency-dominated small messages", n.Name, n.Alpha/n.Beta)
		}
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 2048: 11}
	for p, want := range cases {
		if got := ceilLog2(p); got != want {
			t.Errorf("ceilLog2(%d) = %d, want %d", p, got, want)
		}
	}
}

func TestAllreduceTimeSingleWorkerFree(t *testing.T) {
	for _, algo := range []dist.Algorithm{dist.Central, dist.Tree, dist.Ring} {
		if got := MellanoxFDR.AllreduceTime(algo, 1, 1<<20); got != 0 {
			t.Errorf("%v: single-worker allreduce cost %v, want 0", algo, got)
		}
	}
}

// Property: for large messages the ring is never slower than tree or
// central (bandwidth optimality), and for P=2 all algorithms are within a
// small factor.
func TestRingBandwidthOptimalProperty(t *testing.T) {
	f := func(pp uint8, mb uint8) bool {
		p := int(pp%63) + 2
		bytes := (int64(mb) + 1) * 10 << 20 // 10MB..2.6GB: bandwidth-dominated
		ring := MellanoxFDR.AllreduceTime(dist.Ring, p, bytes)
		tree := MellanoxFDR.AllreduceTime(dist.Tree, p, bytes)
		central := MellanoxFDR.AllreduceTime(dist.Central, p, bytes)
		return ring <= tree*1.01 && ring <= central*1.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeBeatsCentralLargeP(t *testing.T) {
	bytes := int64(100 << 20)
	tree := IntelQDR.AllreduceTime(dist.Tree, 1024, bytes)
	central := IntelQDR.AllreduceTime(dist.Central, 1024, bytes)
	if tree >= central {
		t.Fatalf("tree (%v) should beat central (%v) at P=1024", tree, central)
	}
	// Table 2's model: tree cost grows like log2(P).
	t256 := IntelQDR.AllreduceTime(dist.Tree, 256, bytes)
	t512 := IntelQDR.AllreduceTime(dist.Tree, 512, bytes)
	ratio := (t512 - t256) / t256 // one extra round over 8 → 1/8
	if math.Abs(ratio-1.0/8) > 0.01 {
		t.Fatalf("tree scaling not logarithmic: grew %v from 256 to 512", ratio)
	}
}

func TestIterationsTable2(t *testing.T) {
	// Table 2 exact rows: 1.28M images, 100 epochs.
	cases := []struct {
		batch int
		want  int64
	}{
		{512, 250000},
		{1024, 125000},
		{2048, 62500},
		{4096, 31250},
		{8192, 15625},
	}
	for _, tc := range cases {
		if got := Iterations(100, 1280000, tc.batch); got != tc.want {
			t.Errorf("Iterations(B=%d) = %d, want %d", tc.batch, got, tc.want)
		}
	}
}

func TestIterationsInverseInBatch(t *testing.T) {
	// Figure 8: doubling the batch halves the iterations (up to rounding).
	f := func(bb uint8) bool {
		b := (int(bb%10) + 1) * 512
		i1 := Iterations(90, 1280000, b)
		i2 := Iterations(90, 1280000, 2*b)
		return i2 <= i1/2+90 // rounding slack: one per epoch
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTotalVolumeFigure10(t *testing.T) {
	// Figure 10: volume = |W|·E·n/B. AlexNet at B=512 vs B=32768: the large
	// batch moves 64x less data.
	w := models.AlexNetSpec().WeightBytes()
	small := TotalVolumeBytes(w, 100, 1280000, 512)
	large := TotalVolumeBytes(w, 100, 1280000, 32768)
	if small/large != 62 && small/large != 64 && small/large != 63 {
		t.Fatalf("volume ratio = %d, want ~64x reduction", small/large)
	}
}

func TestTotalMessagesFigure9(t *testing.T) {
	// Messages are proportional to iterations for fixed algorithm and P.
	m512 := TotalMessages(dist.Tree, 64, 100, 1280000, 512)
	m1024 := TotalMessages(dist.Tree, 64, 100, 1280000, 1024)
	if m512 != 2*m1024 {
		t.Fatalf("messages should halve when batch doubles: %d vs %d", m512, m1024)
	}
}

// TestMessagesMatchDistCounters cross-checks Figure 9's message model — one
// iteration's worth of TotalMessages — against the real data movement
// performed by internal/dist.
func TestMessagesMatchDistCounters(t *testing.T) {
	for _, algo := range []dist.Algorithm{dist.Central, dist.Tree, dist.Ring} {
		for _, p := range []int{2, 3, 4, 8} {
			bufs := make([][]float32, p)
			r := rng.New(uint64(p))
			for i := range bufs {
				bufs[i] = make([]float32, 50)
				for j := range bufs[i] {
					bufs[i][j] = r.NormFloat32()
				}
			}
			var stats dist.CommStats
			dist.Reduce(algo, bufs, &stats)
			dist.Broadcast(algo, bufs, &stats)
			if got, want := stats.Messages, TotalMessages(algo, p, 1, 1, 1); got != want {
				t.Errorf("%v P=%d: dist moved %d messages, model says %d", algo, p, got, want)
			}
		}
	}
}

// TestExpectedStatsMatchDistCounters cross-checks the full closed-form
// schedule — messages, bytes and latency rounds — against the counters the
// executing layer records for one allreduce.
func TestExpectedStatsMatchDistCounters(t *testing.T) {
	for _, algo := range []dist.Algorithm{dist.Central, dist.Tree, dist.Ring} {
		for _, p := range []int{2, 3, 4, 8, 16} {
			const n = 80
			bufs := make([][]float32, p)
			for i := range bufs {
				bufs[i] = make([]float32, n)
			}
			var stats dist.CommStats
			dist.Reduce(algo, bufs, &stats)
			dist.Broadcast(algo, bufs, &stats)
			if want := ExpectedStats(algo, p, 4*n); stats != want {
				t.Errorf("%v P=%d: dist recorded %+v, model says %+v", algo, p, stats, want)
			}
		}
	}
}

// TestExpectedTierStatsMatchHierCollectives cross-checks the hierarchical
// closed forms against the per-tier counters the executing layer records
// for one composed allreduce, over varied layouts and algorithm pairings.
func TestExpectedTierStatsMatchHierCollectives(t *testing.T) {
	layouts := []dist.Hierarchy{
		dist.NewHierarchy(2, 2),
		dist.NewHierarchy(2, 4),
		dist.NewHierarchy(4, 2),
		dist.NewHierarchy(3, 2),
		{Nodes: 2, PerNode: 3, Intra: dist.Central, Inter: dist.Ring},
		{Nodes: 4, PerNode: 1, Intra: dist.Ring, Inter: dist.Tree},
		{Nodes: 1, PerNode: 4, Intra: dist.Ring, Inter: dist.Tree},
	}
	const n = 60
	for _, h := range layouts {
		bufs := make([][]float32, h.Workers())
		for i := range bufs {
			bufs[i] = make([]float32, n)
		}
		var tiers dist.TierStats
		dist.HierReduce(h, bufs, &tiers)
		dist.HierBroadcast(h, bufs, &tiers)
		if want := ExpectedTierStats(h, nil, 4*n); tiers != want {
			t.Errorf("%v: dist recorded %+v, model says %+v", h, tiers, want)
		}
	}
}

// TestHierarchicalAllreduceTimeComposes pins the two-fabric price to the
// sum of its per-tier flat prices.
func TestHierarchicalAllreduceTimeComposes(t *testing.T) {
	h := dist.NewHierarchy(8, 4)
	const bytes = 10 << 20
	got := AllreduceTime(MellanoxFDR, Intel10GbE, h, nil, bytes)
	want := MellanoxFDR.AllreduceTime(dist.Ring, 4, bytes) + Intel10GbE.AllreduceTime(dist.Tree, 8, bytes)
	if math.Abs(got-want) > 1e-15 {
		t.Fatalf("AllreduceTime = %v, want %v", got, want)
	}
}

// TestHierarchyBeatsFlatOnSlowInterFabric is the paper's motivation for
// composing fabrics: 64 workers as 8 nodes of 8 on a fast local fabric
// (NVLink-like) plus a slow cluster fabric must out-price the flat 64-way
// ring that pushes every round through the slow fabric, in both the
// latency-bound (small payload) and bandwidth-bound (large payload) regimes.
func TestHierarchyBeatsFlatOnSlowInterFabric(t *testing.T) {
	nvlink := Network{Name: "NVLink-like", Alpha: 5.0e-6, Beta: 0.0125e-9}
	h := dist.Hierarchy{Nodes: 8, PerNode: 8, Intra: dist.Ring, Inter: dist.Ring}
	for _, bytes := range []int64{1 << 10, 100 << 20} {
		flat := Intel10GbE.AllreduceTime(dist.Ring, 64, bytes)
		hier := AllreduceTime(nvlink, Intel10GbE, h, nil, bytes)
		if hier >= flat {
			t.Errorf("bytes=%d: hierarchical %v should beat flat %v on the slow fabric", bytes, hier, flat)
		}
	}
}

// TestTimeFromStatsPricesSchedule pins the aggregate alpha-beta pricing.
func TestTimeFromStatsPricesSchedule(t *testing.T) {
	s := dist.CommStats{Steps: 10, Bytes: 1 << 20}
	want := 10*IntelQDR.Alpha + float64(1<<20)*IntelQDR.Beta
	if got := IntelQDR.TimeFromStats(s); math.Abs(got-want) > 1e-15 {
		t.Fatalf("TimeFromStats = %v, want %v", got, want)
	}
	// More latency rounds on a latency-bound fabric must cost more.
	central := ExpectedStats(dist.Central, 64, 1000)
	tree := ExpectedStats(dist.Tree, 64, 1000)
	if Intel10GbE.TimeFromStats(central) <= Intel10GbE.TimeFromStats(tree) {
		t.Fatal("central's 2(P-1) rounds should out-price tree's 2log2(P)")
	}
}

func TestTable12Energy(t *testing.T) {
	rows := Table12()
	if len(rows) != 7 {
		t.Fatalf("Table 12 has %d rows, want 7", len(rows))
	}
	// DRAM access must dwarf float add (the paper's headline comparison).
	var dram, fadd float64
	for _, r := range rows {
		switch r.Name {
		case "32 bit DRAM access":
			dram = r.PJ
		case "32 bit float add":
			fadd = r.PJ
		}
	}
	if dram/fadd < 500 {
		t.Fatalf("DRAM/float-add energy ratio %v, want >> 1", dram/fadd)
	}
}

func TestEnergyEstimateCommunicationDominates(t *testing.T) {
	// One ResNet-50 iteration at batch 256: ~256·23 GFLOPs of compute vs
	// 4|W| DRAM words. Compute energy should dominate DRAM traffic for
	// weights — but per *weight word moved*, communication is far more
	// expensive than one flop.
	w := models.ResNet50Spec()
	flops := int64(256) * w.TrainFLOPsPerImage()
	dram := DRAMAccessesPerIteration(w.ParamCount())
	total := EnergyEstimate(flops, dram)
	commOnly := EnergyEstimate(0, dram)
	compOnly := EnergyEstimate(flops, 0)
	if total <= commOnly || total <= compOnly {
		t.Fatal("energy must be additive")
	}
	perFlop := compOnly / float64(flops)
	perWord := commOnly / float64(dram)
	if perWord/perFlop < 100 {
		t.Fatalf("per-word movement energy should dwarf per-flop energy: ratio %v", perWord/perFlop)
	}
}
