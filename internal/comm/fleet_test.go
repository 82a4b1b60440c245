package comm_test

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
)

// ones is the size list of a flat world: every worker its own node.
func ones(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// TestFlatFleetIsPerTierPrimitive: for every algorithm and P the whole
// family at dist.Flat(algo, p) has a zero intra tier and an inter tier equal
// to the per-tier primitive — at full strength, shrunk by evictions, grown
// past P by joins, and emptied to one worker (no communication) — and its
// two-fabric price never consults the intra fabric.
func TestFlatFleetIsPerTierPrimitive(t *testing.T) {
	const payload = 1 << 20
	for _, algo := range []dist.Algorithm{dist.Central, dist.Tree, dist.Ring} {
		for p := 1; p <= 9; p++ {
			h := dist.Flat(algo, p)
			for world := 1; world <= p+3; world++ {
				sizes := ones(world)
				if world == p {
					sizes = nil // full strength
				}
				want := dist.TierStats{Inter: comm.ExpectedStats(algo, world, payload)}
				if got := comm.ExpectedTierStats(h, sizes, payload); got != want {
					t.Fatalf("%v P=%d world=%d: %+v, want %+v", algo, p, world, got, want)
				}
				sec := comm.AllreduceTime(comm.Intel10GbE, comm.MellanoxFDR, h, sizes, payload)
				if want := comm.MellanoxFDR.AllreduceTime(algo, world, payload); sec != want {
					t.Fatalf("%v P=%d world=%d: price %v, want the inter fabric's %v", algo, p, world, sec, want)
				}
				if got := comm.ExpectedLocalSGDTierStats(h, sizes, 4, 2, 16, 1000, 300, nil); got.Intra != (dist.CommStats{}) {
					t.Fatalf("%v P=%d world=%d: intra-only rounds put traffic on a flat world's intra tier: %+v", algo, p, world, got.Intra)
				}
			}
		}
	}
}

// TestExpectedDegradedTierStatsFullFleet: a size list with every node at
// full strength is the nil (full-strength) fleet.
func TestExpectedDegradedTierStatsFullFleet(t *testing.T) {
	const payload = 4096
	h := dist.NewHierarchy(3, 4)
	sizes := []int{4, 4, 4}
	if got, want := comm.ExpectedTierStats(h, sizes, payload), comm.ExpectedTierStats(h, nil, payload); got != want {
		t.Fatalf("full-fleet degraded stats %+v, want %+v", got, want)
	}
}

// TestExpectedDegradedTierStatsShrunkenInter: losing a whole node shrinks
// the inter tier; losing every node but one empties it.
func TestExpectedDegradedTierStatsShrunkenInter(t *testing.T) {
	const payload = 4096
	h := dist.NewHierarchy(3, 4)
	twoNodes := comm.ExpectedTierStats(h, []int{4, 3}, payload)
	if want := comm.ExpectedStats(h.Inter, 2, payload); twoNodes.Inter != want {
		t.Fatalf("two-node inter tier %+v, want flat P=2 %+v", twoNodes.Inter, want)
	}
	// Intra latency rounds follow the slowest surviving node.
	if want := comm.ExpectedStats(h.Intra, 4, payload).Steps; twoNodes.Intra.Steps != want {
		t.Fatalf("intra rounds %d, want the largest node's %d", twoNodes.Intra.Steps, want)
	}
	oneNode := comm.ExpectedTierStats(h, []int{2}, payload)
	if oneNode.Inter != (dist.CommStats{}) {
		t.Fatalf("single surviving node still prices an inter tier: %+v", oneNode.Inter)
	}
}

// TestDegradedHierarchicalAllreduceTime: the full fleet spelled out matches
// the nil fleet's price; shrinking the fleet never makes the allreduce
// slower, and the largest surviving node paces the intra tier.
func TestDegradedHierarchicalAllreduceTime(t *testing.T) {
	const payload = 100 << 20
	h := dist.NewHierarchy(4, 8)
	intra, inter := comm.MellanoxFDR, comm.Intel10GbE
	full := comm.AllreduceTime(intra, inter, h, []int{8, 8, 8, 8}, payload)
	if want := comm.AllreduceTime(intra, inter, h, nil, payload); full != want {
		t.Fatalf("full-fleet degraded time %v, want %v", full, want)
	}
	degraded := comm.AllreduceTime(intra, inter, h, []int{8, 8, 8, 5}, payload)
	if degraded > full {
		t.Fatalf("losing workers made the allreduce slower: %v > %v", degraded, full)
	}
	if got := comm.AllreduceTime(intra, inter, h, []int{5, 8, 8}, payload); got != comm.AllreduceTime(intra, inter, h, []int{8, 8, 5}, payload) {
		t.Fatalf("node order changed the price: %v", got)
	}
	collapsed := comm.AllreduceTime(intra, inter, h, []int{8}, payload)
	if collapsed >= degraded {
		t.Fatalf("losing the inter tier should shed its cost: %v >= %v", collapsed, degraded)
	}
}
