package dist_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/opt"
)

// TestFlatIsPx1Hierarchy: a flat world is the P×1 hierarchy. An engine
// configured with a flat Algo and one configured with the explicit
// Hierarchy{Nodes: P, PerNode: 1, Inter: Algo} agree counter for counter on
// every step — comm, overlap and membership ledgers, losses, final weights —
// under drops, stalls, two evictions and two joins, on both step entry
// points. The only difference is the reporting edge: the explicit topology
// reports its tier split (intra exactly zero, inter equal to the aggregate),
// the flat config leaves it unreported.
func TestFlatIsPx1Hierarchy(t *testing.T) {
	x, labels, factory := testTask(60)
	const workers, steps = 5, 14
	modes := []struct {
		name string
		set  func(*dist.Config)
	}{
		{"sync", func(*dist.Config) {}},
		{"overlap+fp16", func(c *dist.Config) { c.Overlap, c.BucketElems, c.Codec = true, 64, dist.FP16Codec{} }},
		{"1bit", func(c *dist.Config) { c.Codec, c.BucketElems = dist.NewOneBitCodec(), 64 }},
		{"local4", func(c *dist.Config) { c.SyncEvery = 4 }},
	}
	type trace struct {
		losses  []float64
		steps   []dist.CommStats
		overlap []dist.OverlapStats
		tiers   []dist.TierStats
		member  dist.MembershipStats
		weights []float32
	}
	run := func(cfg dist.Config, set func(*dist.Config)) trace {
		set(&cfg)
		cfg.Faults = &dist.FaultPlan{Seed: 5, DropRate: 0.3, StallRate: 0.2,
			Dead: map[int]int64{1: 1, 3: 2}, Join: map[int]int64{2: 3, 3: 9}}
		cfg.Elastic = &dist.Elastic{EvictAfter: 1}
		e := localEngine(cfg, workers, factory)
		defer e.Close()
		master := opt.NewSGD(e.Master().Params(), opt.SGDConfig{})
		var tr trace
		for s := 0; s < steps; s++ {
			loss, err := trainStep(e, master, cfg.SyncEvery > 1, x, labels)
			if err != nil {
				t.Fatal(err)
			}
			tr.losses = append(tr.losses, loss)
			tr.steps = append(tr.steps, e.StepStats())
			tr.overlap = append(tr.overlap, e.StepOverlapStats())
			tr.tiers = append(tr.tiers, e.StepTierStats())
		}
		tr.member, tr.weights = e.Membership(), flatWeights(e.Master())
		return tr
	}
	for _, algo := range algorithms {
		for _, mode := range modes {
			t.Run(fmt.Sprintf("%v/%s", algo, mode.name), func(t *testing.T) {
				flat := run(dist.Config{Algo: algo}, mode.set)
				px1 := run(dist.Config{Topology: &dist.Hierarchy{Nodes: workers, PerNode: 1, Inter: algo}}, mode.set)
				if flat.member.Evictions != 2 || flat.member.Joins != 2 {
					t.Fatalf("scenario drifted: %d evictions, %d joins, want 2 and 2", flat.member.Evictions, flat.member.Joins)
				}
				if !reflect.DeepEqual(flat.losses, px1.losses) || !reflect.DeepEqual(flat.weights, px1.weights) {
					t.Fatal("losses or final weights differ between flat and Px1")
				}
				if !reflect.DeepEqual(flat.steps, px1.steps) || !reflect.DeepEqual(flat.overlap, px1.overlap) {
					t.Fatalf("per-step counters differ:\nflat %+v\n Px1 %+v", flat.steps, px1.steps)
				}
				if !reflect.DeepEqual(flat.member, px1.member) {
					t.Fatalf("membership differs:\nflat %+v\n Px1 %+v", flat.member, px1.member)
				}
				for s := range px1.tiers {
					if flat.tiers[s] != (dist.TierStats{}) {
						t.Fatalf("step %d: flat config reports a tier split %+v", s, flat.tiers[s])
					}
					if px1.tiers[s].Intra != (dist.CommStats{}) || px1.tiers[s].Inter != px1.steps[s] {
						t.Fatalf("step %d: Px1 tiers %+v, want intra zero and inter %+v", s, px1.tiers[s], px1.steps[s])
					}
				}
			})
		}
	}
}
