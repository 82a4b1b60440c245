package comm_test

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/closedforms.golden from the current closed forms")

// fleet is one row of the golden grid: a layout and, when degraded, the
// live-worker count of every surviving node (nil = full strength). The file
// was generated at the parent commit through the flat / Hier* / Degraded*
// twins this family replaced — "flat/" rows through ExpectedStats,
// ExpectedStatsAt, Network.AllreduceTime, the flat ExpectedOverlapStats /
// OverlapSchedule and ExpectedLocalSGDStats; "hier/" rows through
// ExpectedTierStats, ExpectedDegradedTierStats, (Degraded)Hierarchical-
// AllreduceTime, ExpectedHierOverlapStats, HierOverlapSchedule over the
// substitute hierarchy cluster.pricePhase used to build, and
// ExpectedLocalSGDTierStats — so reproducing it unedited is the proof the
// fold moved no counter and no ulp.
type fleet struct {
	name    string
	sampled bool // also in the overlap, pipeline and local-SGD grids
	h       dist.Hierarchy
	sizes   []int
}

func (f fleet) flat() bool { return strings.HasPrefix(f.name, "flat/") }

func flatFleet(algo dist.Algorithm, p int) fleet {
	return fleet{name: fmt.Sprintf("flat/%v/P%d", algo, p), h: dist.Flat(algo, p)}
}

// goldenWriter renders one grid cell per line: counters in decimal, every
// seconds value as its IEEE bit pattern.
type goldenWriter struct{ b strings.Builder }

func (g *goldenWriter) label(format string, args ...any) {
	if g.b.Len() > 0 {
		g.b.WriteByte('\n')
	}
	fmt.Fprintf(&g.b, format, args...)
}
func (g *goldenWriter) ints(vs ...int64) {
	for _, v := range vs {
		fmt.Fprintf(&g.b, " %d", v)
	}
}
func (g *goldenWriter) floats(vs ...float64) {
	for _, v := range vs {
		fmt.Fprintf(&g.b, " %016x", math.Float64bits(v))
	}
}
func (g *goldenWriter) stats(s dist.CommStats) {
	g.ints(s.Messages, s.Bytes, s.Steps, s.Retries, s.Stalls)
}
func (g *goldenWriter) tiers(t dist.TierStats) { g.stats(t.Intra); g.stats(t.Inter) }

var (
	algorithms = []dist.Algorithm{dist.Central, dist.Tree, dist.Ring}
	nvlink     = comm.Network{Name: "NVLink-like", Alpha: 5.0e-6, Beta: 0.0125e-9}
)

// goldenFleets is the topology grid: every flat world, every layout ×
// algorithm pair, and the degraded size lists.
func goldenFleets() (full, degraded []fleet) {
	for _, algo := range algorithms {
		for _, p := range []int{1, 2, 3, 4, 5, 8, 9} {
			f := flatFleet(algo, p)
			f.sampled = p == 1 || p == 4 || p == 9
			full = append(full, f)
		}
	}
	for _, shape := range [][2]int{{2, 2}, {2, 3}, {4, 1}, {1, 4}} {
		for _, intra := range algorithms {
			for _, inter := range algorithms {
				h := dist.Hierarchy{Nodes: shape[0], PerNode: shape[1], Intra: intra, Inter: inter}
				full = append(full, fleet{name: "hier/" + strings.ReplaceAll(h.String(), " ", "-"), h: h,
					sampled: intra == dist.Ring && inter == dist.Tree || intra == dist.Central && inter == dist.Ring || intra == dist.Tree && inter == dist.Central})
			}
		}
	}
	for _, algo := range algorithms {
		for _, world := range []int{1, 3, 6, 9} { // a 4-worker flat world shrunk, and grown past P
			f := flatFleet(algo, 4)
			f.name += fmt.Sprintf("/world%d", world)
			f.sizes, f.sampled = ones(world), true
			degraded = append(degraded, f)
		}
	}
	for _, pair := range [][2]dist.Algorithm{{dist.Ring, dist.Tree}, {dist.Central, dist.Ring}, {dist.Tree, dist.Central}} {
		h := dist.Hierarchy{Nodes: 4, PerNode: 8, Intra: pair[0], Inter: pair[1]}
		for _, sizes := range [][]int{
			{8, 8, 8, 8}, // full strength, spelled out
			{8, 8, 8},    // a drained node
			{8, 8, 8, 5}, // uneven survivors
			{3, 8, 1},    // uneven, largest not first
			{8},          // one node left: no leader exchange
			{1, 1},       // two lone leaders: no intra tier
		} {
			name := fmt.Sprintf("hier/%s/sizes%v", strings.ReplaceAll(h.String(), " ", "-"), sizes)
			degraded = append(degraded, fleet{name: strings.ReplaceAll(name, " ", ","), sampled: true, h: h, sizes: sizes})
		}
	}
	return full, degraded
}

func closedFormsDump() string {
	var g goldenWriter
	full, degraded := goldenFleets()

	// One full allreduce: counters per tier and the two-fabric price.
	for _, f := range append(append([]fleet{}, full...), degraded...) {
		for _, payload := range []int64{0, 4000, 102_400_001} {
			g.label("allreduce/%s/B%d", f.name, payload)
			g.tiers(comm.ExpectedTierStats(f.h, f.sizes, payload))
			g.floats(comm.AllreduceTime(nvlink, comm.MellanoxFDR, f.h, f.sizes, payload),
				comm.AllreduceTime(comm.Intel10GbE, comm.IntelQDR, f.h, f.sizes, payload))
		}
	}

	// Overlap: the hidden/exposed split for 1/3/8 buckets with a first
	// parameter smaller and larger than a bucket, and the bucket timelines.
	layouts := []struct {
		name       string
		paramElems []int
	}{
		{"small-first", []int{10, 500, 290}},
		{"large-first", []int{600, 150, 50}},
	}
	for _, f := range append(append([]fleet{}, full...), degraded...) {
		if !f.sampled || !f.flat() && f.sizes != nil {
			continue // the parent's API had no degraded hierarchical split
		}
		for _, l := range layouts {
			for _, k := range []int{1, 3, 8} {
				g.label("overlap/%s/%s/k%d", f.name, l.name, k)
				o := comm.ExpectedOverlapStats(f.h, f.sizes, l.paramElems, (800+k-1)/k)
				g.ints(o.HiddenRounds, o.HiddenBytes, o.ExposedRounds, o.ExposedBytes)
			}
		}
	}
	for _, f := range append(append([]fleet{}, full...), degraded...) {
		if !f.sampled {
			continue
		}
		for _, k := range []int{1, 3, 8} {
			for _, backward := range []float64{0, 0.004, 0.150} {
				g.label("pipeline/%s/k%d/bwd%g", f.name, k, backward)
				buckets := comm.EqualBuckets(102_400_001, k)
				tl := comm.OverlapSchedule(nvlink, comm.MellanoxFDR, f.h, f.sizes, buckets, backward)
				for _, b := range tl {
					g.ints(b.Bytes)
					g.floats(b.ReadySec, b.StartSec, b.DoneSec)
					if b.Hidden {
						g.b.WriteString(" T")
					} else {
						g.b.WriteString(" F")
					}
				}
				g.floats(comm.OverlappedAllreduceTime(nvlink, comm.MellanoxFDR, f.h, f.sizes, buckets, backward), comm.ExposedTime(tl, backward))
			}
		}
	}

	// Local SGD: H × Hi × wire × bucketing, a step count every H divides and
	// one none does.
	wires := []struct {
		name string
		w    comm.WireSizer
	}{{"raw", nil}, {"fp16", comm.FP16Wire}}
	for _, f := range full {
		if !f.sampled {
			continue
		}
		for _, h := range []int{1, 4, 8} {
			for _, hi := range []int{0, 2} {
				if f.flat() && hi != 0 {
					continue // the parent's flat form had no intermediate tier
				}
				for _, w := range wires {
					for _, bucket := range []int{0, 1000} {
						for _, steps := range []int64{16, 21} {
							g.label("localsgd/%s/H%d/Hi%d/%s/bucket%d/steps%d", f.name, h, hi, w.name, bucket, steps)
							g.tiers(comm.ExpectedLocalSGDTierStats(f.h, nil, h, hi, steps, 9_999, bucket, w.w))
						}
					}
				}
			}
		}
	}
	g.b.WriteByte('\n')
	return g.b.String()
}

// TestClosedFormsGolden pins every counter and every seconds value of the
// closed-form family, bit for bit, against the file generated through the
// flat/Hier/Degraded twins before they were folded into one family over
// (dist.Hierarchy, sizes) — see fleet. An intended change to a closed form
// regenerates the file with -update and reviews the diff.
func TestClosedFormsGolden(t *testing.T) {
	const path = "testdata/closedforms.golden"
	got := closedFormsDump()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden has %d lines, the closed forms produced %d", len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			label, _, _ := strings.Cut(wantLines[i], " ")
			t.Errorf("%s differs from golden\n got: %s\nwant: %s", label, gotLines[i], wantLines[i])
		}
	}
}
