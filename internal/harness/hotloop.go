package harness

import (
	"fmt"
	"time"

	"repro/internal/dist"
	"repro/internal/kernel"
	"repro/internal/models"
	"repro/internal/rng"
)

// HotLoopStudy profiles the training hot loop under both reduction
// policies: for each of CanonicalF64 and PairwiseF32 it (a) verifies the
// policy's determinism contract for real — one engine step at P=2 vs P=4
// (pinned shards) and flat vs hierarchical must reduce bit-identically —
// and (b) measures the raw reduction kernel's throughput plus profiled
// engine steps' phase shares (gemm/im2col/convert/reduce/codec/other, which
// sum exactly to each step's wall time by the profiler's construction).
//
// The table's *shape* is deterministic — fixed rows, fixed columns, and
// the identity column is exact schedule/value arithmetic — while the
// throughput and share cells are measured timings, so the table is marked
// Volatile: the docs-drift job compares its digit-normalized shape rather
// than exact bytes.
func HotLoopStudy() (*Table, error) {
	const workers = 4
	t := &Table{
		ID:       "HotLoop study",
		Title:    fmt.Sprintf("Reduction policies and per-step phase profile (P=%d, micro-AlexNet)", workers),
		Header:   []string{"reduction", "identity (P, topology)", "reduce GB/s", "step wall", "gemm", "im2col", "convert", "reduce", "codec", "other"},
		Volatile: true,
	}
	ds := studySynth(16, 64)
	micro := models.MicroConfig{Classes: 4, InC: 3, InH: 16, InW: 16, Width: 4}
	conv := newFixture(models.MicroAlexNetSpec(micro).Factory(), 1, ds, 64)
	// The identity model is the dropout-free MLP: dropout masks are drawn
	// from each replica's own RNG, so they — not the reduction — would break
	// cross-P identity (the same modeling choice the engine's bit-identity
	// tests make).
	mlp := newFixture(models.MLPSpec(micro).Factory(), 1, ds, 64)

	for _, policy := range []dist.Reduction{dist.CanonicalF64, dist.PairwiseF32} {
		identity, err := reductionIdentity(mlp, policy)
		if err != nil {
			return nil, err
		}
		phases, err := conv.profiledStep(dist.Config{Reduction: policy})
		if err != nil {
			return nil, err
		}
		t.Add(append([]string{policy.String(), identity, fmt.Sprintf("%.2f", reduceThroughput(policy))}, phases...)...)
	}
	t.Note("Identity column is exact (dropout-free MLP, Shards pinned to 4): one engine step at P=2, P=4 and flat-vs-hierarchical P=4 must produce bitwise-equal reduced gradients under the policy — the fixed-tree pairwise kernel keeps this true in float32 because its tree shape depends only on the live shard count.")
	t.Note("Reduce GB/s times the bare summation kernel (8 shards x 1M coords, input bytes/sec): the pairwise-f32 tree runs unrolled multi-accumulator float32 loops, and with AVX2 the canonical float64 chain runs one pass that keeps eight coordinates' chains in registers while the shards stream past in order.")
	t.Note("Phase columns come from twenty profiled engine steps after one warm-up (dist.ProfileStats): step wall is their median, the shares those of their summed profile, and exclusive attribution guarantees each step's six shares sum to its wall (convert is zero here: float32 operands are never rounded through binary16). GEMM dominating is Table 6's scaling-ratio story measured from execution; the reduce share is what the policy column shrinks.")
	return t, nil
}

// reductionIdentity runs the policy's determinism contract over f — one
// engine step at P=2, P=4 and 2x2 hierarchical, shards pinned to 4, must
// leave bitwise-equal reduced gradients on the master — and reports "exact"
// only if every topology reduces to the same bits.
func reductionIdentity(f fixture, policy dist.Reduction) (string, error) {
	var ref []float32
	for _, h := range []dist.Hierarchy{dist.Flat(dist.Ring, 2), dist.Flat(dist.Ring, 4), dist.NewHierarchy(2, 2)} {
		var got []float32
		_, err := f.run(h, dist.Config{Shards: 4, Reduction: policy}, 1, func(e *dist.Engine) {
			for _, p := range e.Master().Params() {
				got = append(got, p.G.Data...)
			}
		})
		if err != nil {
			return "", err
		}
		if ref == nil {
			ref = got
		}
		for i := range got {
			if got[i] != ref[i] {
				return fmt.Sprintf("DRIFT at P=%d %s coord %d", h.Workers(), topologyLabel(h), i), nil
			}
		}
	}
	return "exact", nil
}

// reduceThroughput times the bare summation kernel of one policy over an
// 8-shard, 1M-coordinate buffer set and returns input GB/s.
func reduceThroughput(policy dist.Reduction) float64 {
	const shards, n, iters = 8, 1 << 20, 6
	r := rng.New(1)
	srcs := make([][]float32, shards)
	for s := range srcs {
		srcs[s] = make([]float32, n)
		for i := range srcs[s] {
			srcs[s][i] = r.NormFloat32()
		}
	}
	dst := make([]float32, n)
	run := func() {
		if policy == dist.PairwiseF32 {
			kernel.PairwiseAccumulate(dst, srcs, nil)
		} else {
			kernel.CanonicalAccumulate(dst, srcs, nil)
		}
	}
	run() // warm the scratch pools
	start := time.Now()
	for i := 0; i < iters; i++ {
		run()
	}
	sec := time.Since(start).Seconds()
	return float64(iters) * float64(shards) * float64(4*n) / sec / 1e9
}
