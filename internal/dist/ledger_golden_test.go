package dist_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/opt"
	"repro/internal/tensor"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/ledger.golden from the current engine")

// ledgerWriter renders the engine's ledgers one step per line: counters in
// decimal, the loss as its IEEE bit pattern, so the comparison is bit for
// bit. A counter group that is all zero is left out of its line (the tier
// split of every flat cell, the membership counters of every quiet step).
type ledgerWriter struct{ b strings.Builder }

func (g *ledgerWriter) group(tag string, vs ...int64) {
	zero := true
	for _, v := range vs {
		zero = zero && v == 0
	}
	if zero {
		return
	}
	g.b.WriteString(" " + tag + "=")
	for i, v := range vs {
		if i > 0 {
			g.b.WriteByte(',')
		}
		fmt.Fprintf(&g.b, "%d", v)
	}
}

func (g *ledgerWriter) comm(tag string, s dist.CommStats) {
	g.group(tag, s.Messages, s.Bytes, s.Steps, s.Retries, s.Stalls)
}

// ledgers writes the five counter ledgers of one step (or of the whole run).
func (g *ledgerWriter) ledgers(r dist.Report) {
	o, m, l := r.Overlap, r.Membership, r.LocalSGD
	g.comm("comm", r.Comm)
	g.comm("intra", r.TierComm.Intra)
	g.comm("inter", r.TierComm.Inter)
	g.group("overlap", o.HiddenRounds, o.HiddenBytes, o.ExposedRounds, o.ExposedBytes)
	g.group("member", m.Evictions, m.Joins, m.RebalancedShards, m.JoinedShards, m.RebalancedBytes, m.JoinedBytes)
	if tl := m.Timeline(); tl != "-" {
		g.b.WriteString(" world=" + strings.ReplaceAll(tl, " ", ","))
	}
	for _, ev := range m.Events {
		fmt.Fprintf(&g.b, " %v/%d", ev, ev.World)
	}
	g.group("local", l.LocalSteps, l.SyncRounds, l.IntraRounds)
}

// trainStep runs one whole training step through either entry point: a
// LocalStep, or the ComputeGradient → optimizer → BroadcastWeights loop.
func trainStep(e *dist.Engine, master dist.Stepper, local bool, x *tensor.Tensor, labels []int) (float64, error) {
	if local {
		return e.LocalStep(x, labels, 0.05)
	}
	loss, err := e.ComputeGradient(x, labels)
	if err != nil {
		return 0, err
	}
	master.Step(0.05)
	return loss, e.BroadcastWeights()
}

// ledgerDump drives the golden grid: five topologies × five reduction
// configurations × three fault plans × the engine's step entry points, each
// with the default and a pinned shard split.
func ledgerDump(t *testing.T) string {
	x, labels, factory := testTask(64)
	const steps = 10
	h22, h23 := dist.NewHierarchy(2, 2), dist.NewHierarchy(2, 3)
	topologies := []struct {
		name    string
		workers int
		cfg     dist.Config
	}{
		{"central", 4, dist.Config{Algo: dist.Central}},
		{"tree", 4, dist.Config{Algo: dist.Tree}},
		{"ring", 4, dist.Config{Algo: dist.Ring}},
		{"2x2", 4, dist.Config{Topology: &h22}},
		{"2x3", 6, dist.Config{Topology: &h23}},
	}
	modes := []struct {
		name string
		set  func(*dist.Config)
	}{
		{"plain", func(*dist.Config) {}},
		{"overlap", func(c *dist.Config) { c.Overlap, c.BucketElems = true, 1024 }},
		{"fp16", func(c *dist.Config) { c.Codec = dist.FP16Codec{} }},
		{"1bit", func(c *dist.Config) { c.Codec, c.BucketElems = dist.NewOneBitCodec(), 1024 }},
		{"pairwise", func(c *dist.Config) { c.Reduction = dist.PairwiseF32 }},
	}
	faults := []struct {
		name string
		set  func(*dist.Config)
	}{
		{"clean", func(*dist.Config) {}},
		{"drops", func(c *dist.Config) {
			c.Faults = &dist.FaultPlan{Seed: 11, DropRate: 0.3, StallRate: 0.2}
		}},
		// Worker 2 dies at step 1, is evicted at the first barrier that
		// sees it and returns at step 7; worker 3 is a fresh replica that
		// joins at step 3. Under H=4 both admissions wait for a window
		// start (steps 8 and 4).
		{"churn", func(c *dist.Config) {
			c.Faults = &dist.FaultPlan{Seed: 11, DropRate: 0.1,
				Dead: map[int]int64{2: 1}, Join: map[int]int64{2: 7, 3: 3}}
			c.Elastic = &dist.Elastic{EvictAfter: 1}
		}},
	}
	type driver struct {
		name     string
		h, intra int
	}

	var g ledgerWriter
	for _, topo := range topologies {
		drivers := []driver{{"grad", 0, 0}, {"local4", 4, 0}}
		if topo.cfg.Topology != nil {
			drivers = append(drivers, driver{"local4i2", 4, 2})
		}
		for _, mode := range modes {
			for _, fault := range faults {
				for _, drv := range drivers {
					for _, shards := range []int{0, 8} {
						cfg := topo.cfg
						mode.set(&cfg)
						fault.set(&cfg)
						cfg.Shards, cfg.SyncEvery, cfg.IntraSyncEvery = shards, drv.h, drv.intra
						fmt.Fprintf(&g.b, "== %s/%s/%s/%s/shards%d\n", topo.name, mode.name, fault.name, drv.name, shards)

						e := localEngine(cfg, topo.workers, factory)
						master := opt.NewSGD(e.Master().Params(), opt.SGDConfig{})
						for s := 0; s < steps; s++ {
							loss, err := trainStep(e, master, drv.h > 0, x, labels)
							if err != nil {
								t.Fatal(err)
							}
							fmt.Fprintf(&g.b, "%016x", math.Float64bits(loss))
							g.ledgers(e.StepReport())
							g.b.WriteByte('\n')
						}
						sum := fnv.New64a()
						for _, w := range flatWeights(e.Master()) {
							bits := math.Float32bits(w)
							sum.Write([]byte{byte(bits), byte(bits >> 8), byte(bits >> 16), byte(bits >> 24)})
						}
						fmt.Fprintf(&g.b, "total %016x", sum.Sum64())
						g.ledgers(e.Report())
						g.b.WriteByte('\n')
						e.Close()
					}
				}
			}
		}
	}
	return g.b.String()
}

// TestLedgerGolden pins every counter of the engine's ledgers — per step
// and cumulative — plus every loss and the final master weights, bit for
// bit, against the file generated before the two step entry points were
// folded into one template and the six ledger pairs into one report: a
// refactor of the engine must not move a counter. Profile is wall time and
// stays out. An intended accounting change regenerates the file with
// -update and reviews the diff.
func TestLedgerGolden(t *testing.T) {
	const path = "testdata/ledger.golden"
	got := ledgerDump(t)
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
		t.Fatalf("golden has %d lines, the engine produced %d", len(wantLines), len(gotLines))
	}
	cell, first := "", 0
	for i := range gotLines {
		if strings.HasPrefix(wantLines[i], "== ") {
			cell, first = wantLines[i][3:], i+1
		}
		if gotLines[i] != wantLines[i] {
			t.Errorf("%s step %d differs from golden\n got: %s\nwant: %s", cell, i-first, gotLines[i], wantLines[i])
		}
	}
}
