package harness

import (
	"fmt"
	"math"

	"repro/internal/async"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/nn"
)

// LocalSGDStudy places the engine on the synchronization spectrum the
// SyncEvery knob opens up: fully synchronous SGD at one end (every step a
// weight-coherent allreduce), local SGD in the middle (H private optimizer
// steps between weight averages, communication scaled by exactly 1/H),
// hierarchical local SGD (cheap intra-node averages between rare full
// rounds), and Downpour-style asynchronous SGD at the far end (no
// collective at all, staleness instead of drift). Every row trains the
// same seeded micro task for the same step budget; the table reports the
// measured communication volume against the closed form
// (comm.ExpectedLocalSGDTierStats at the row's topology — "exact" means
// counter-for-counter equality on both tiers), the volume ratio against the synchronous
// baseline, the final training loss and test accuracy, and the L2 distance
// of the final weights from the synchronous run's — the divergence-vs-H
// tradeoff the communication savings buy. Deterministic end to end (the
// async simulator runs on a virtual clock), so the docs-drift job
// regenerates this section bit-identically.
func LocalSGDStudy() (*Table, error) {
	const workers, batch, epochs = 4, 64, 2
	t := &Table{
		ID:     "LocalSGD study",
		Title:  fmt.Sprintf("The synchronous <-> local <-> asynchronous spectrum (P=%d, B=%d, %d epochs)", workers, batch, epochs),
		Header: []string{"mode", "comm bytes", "vs sync", "closed form", "sync rounds", "final loss", "test acc", "||w - w_sync||"},
	}
	ds := studySynth(8, 64)

	// Capture each run's first-built replica: core.Train's replica 0 is the
	// master (and at window-closing step counts every replica agrees with
	// it); async.Train's first factory call builds the parameter server.
	build := models.MLPSpec(models.MicroConfig{Classes: 4, InC: 3, InH: 8, InW: 8, Width: 4}).Factory()
	capturing := func(first **nn.Network) func(uint64) *nn.Network {
		return func(seed uint64) *nn.Network {
			net := build(seed)
			if *first == nil {
				*first = net
			}
			return net
		}
	}
	flatWeights := func(net *nn.Network) []float32 {
		var out []float32
		for _, p := range net.Params() {
			out = append(out, p.W.Data...)
		}
		return out
	}
	l2 := func(a, b []float32) float64 {
		var sum float64
		for i := range a {
			d := float64(a[i]) - float64(b[i])
			sum += d * d
		}
		return math.Sqrt(sum)
	}

	// The collective rows, synchronous end first: every run is one
	// core.Train over its topology (flat rows are dist.Flat), and the
	// closed-form check runs per tier — which for a flat world says the
	// intra tier stayed silent and the inter tier carried everything.
	flat, hier := dist.Flat(dist.Ring, workers), dist.NewHierarchy(2, 2)
	rows := []struct {
		label      string
		h          dist.Hierarchy
		sync, intr int // SyncEvery (1 is the every-step gradient path), IntraSyncEvery
	}{
		{"sync (H=1)", flat, 1, 0},
		{"local (H=2)", flat, 2, 0},
		{"local (H=4)", flat, 4, 0},
		{"local (H=8)", flat, 8, 0},
		{"hier local (H=8, Hi=2)", hier, 8, 2},
	}
	var syncRes *core.Result
	var syncW []float32
	var steps int64
	nelems := 0
	for _, row := range rows {
		var net *nn.Network
		cfg := core.Config{
			Model: capturing(&net), Workers: workers, Topology: &row.h,
			Batch: batch, Epochs: epochs, Method: core.BaselineSGD,
			BaseLR: 0.1, Seed: 11, SyncEvery: row.sync, IntraSyncEvery: row.intr,
		}
		res, err := core.Train(cfg, ds)
		if err != nil {
			return nil, err
		}
		w := flatWeights(net)
		rounds := fmt.Sprintf("%d", res.LocalSGD.SyncRounds)
		switch {
		case syncRes == nil:
			// The synchronous baseline: the reference weights, step budget
			// and communication volume; every step is a round.
			syncRes, syncW, steps, nelems = res, w, res.Iterations, len(w)
			rounds = fmt.Sprintf("%d", steps)
		case row.intr > 0:
			rounds = fmt.Sprintf("%d+%di", res.LocalSGD.SyncRounds, res.LocalSGD.IntraRounds)
		}
		// Every run pays one construction broadcast before step 0; the
		// closed form prices the steps, so add it on that side.
		want := comm.ExpectedLocalSGDTierStats(row.h, nil, row.sync, row.intr, steps, nelems, 0, nil)
		want.Add(dist.HierBroadcastSchedule(row.h, nil, 4*int64(nelems)))
		t.Add(row.label,
			fmt.Sprintf("%d", res.Comm.Bytes),
			fmt.Sprintf("%.3f", float64(res.Comm.Bytes)/float64(syncRes.Comm.Bytes)),
			matchCell(res.TierComm, want),
			rounds,
			fmt.Sprintf("%.4f", res.FinalLoss),
			fmt.Sprintf("%.3f", res.TestAcc),
			fmt.Sprintf("%.4f", l2(w, syncW)))
	}

	// The far end of the spectrum: Downpour-style async, same number of
	// server updates as the others took steps, no collective at all. Its
	// traffic is point-to-point — one gradient push plus one weight pull
	// per update, priced analytically (the simulator moves no bytes).
	var asyncNet *nn.Network
	asyncRes, err := async.Train(async.Config{
		Model: capturing(&asyncNet), Workers: workers, Batch: batch,
		Updates: int(steps), BaseLR: 0.1, Momentum: 0.9, Seed: 11,
	}, ds)
	if err != nil {
		return nil, err
	}
	asyncBytes := steps * 2 * 4 * int64(nelems)
	t.Add("async (Downpour)",
		fmt.Sprintf("%d", asyncBytes),
		fmt.Sprintf("%.3f", float64(asyncBytes)/float64(syncRes.Comm.Bytes)),
		"modeled",
		"0",
		fmt.Sprintf("%.4f", asyncRes.FinalLoss),
		fmt.Sprintf("%.3f", asyncRes.TestAcc),
		fmt.Sprintf("%.4f", l2(flatWeights(asyncNet), syncW)))

	t.Note("comm bytes include the one-time construction broadcast; the closed forms add it before comparing.")
	t.Note("||w - w_sync|| is the L2 distance of the final weights from the synchronous run's — the drift the 1/H communication savings buy. %d steps, so every H divides the run and the last step closes its window.", steps)
	t.Note("async staleness: mean %.2f, max %d — the async row trades the drift column for staleness.", asyncRes.MeanStaleness, asyncRes.MaxStaleness)
	return t, nil
}
