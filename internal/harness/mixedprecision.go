package harness

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// MixedPrecisionStudy exercises the binary16 compute path against the
// float32 baseline on the synthetic task: for each precision it (a) verifies
// the trainer-level identity contract — the loss trajectory at P=1 must
// reproduce bit-identically at P=4 flat, P=4 hierarchical and P=4
// overlapped with a pinned shard split — (b) trains to completion and
// reports accuracy (parity is the acceptance criterion) plus the dynamic
// loss scaler's final scale, and (c) profiles engine steps, where the
// convert column is the binary16 rounding the f16 path adds on top of the
// same float32 arithmetic.
// A negative control confirms the f16 trajectory differs bitwise from f32 —
// without it the identity column could pass with the precision switch dead.
//
// Identity and accuracy cells are exact reproducible arithmetic; the wall
// and share cells are measured, so the table is Volatile (docs-drift
// compares its digit-normalized shape).
func MixedPrecisionStudy() (*Table, error) {
	t := &Table{
		ID:       "MixedPrecision study",
		Title:    "Mixed-precision training: f16 operands, f32 accumulation (P=4, micro conv net)",
		Header:   []string{"precision", "identity (P, topology)", "test acc", "final loss", "loss scale", "step wall", "gemm", "im2col", "convert", "reduce", "codec", "other"},
		Volatile: true,
	}
	ds := studySynth(8, 128)

	var trajectories [2][]float64
	for i, prec := range []tensor.Precision{tensor.F32, tensor.F16} {
		identity, traj, err := trajectoryIdentity(core.Config{
			Model: precisionNet, Precision: prec,
			Batch: 64, Epochs: 2, Method: core.BaselineSGD, BaseLR: 0.1, Seed: 9,
		}, ds)
		if err != nil {
			return nil, err
		}
		trajectories[i] = traj

		res, err := core.Train(core.Config{
			Model: precisionNet, Batch: 32, Epochs: 8, Method: core.BaselineSGD,
			BaseLR: 0.1, Seed: 1, Precision: prec,
		}, ds)
		if err != nil {
			return nil, err
		}
		scale := "—"
		if prec == tensor.F16 {
			scale = fmt.Sprintf("2^%d", int(math.Log2(res.Scale.Scale)))
		}

		// P=4 engine steps with the replicas at the precision under study:
		// the convert share is what the f16 path adds.
		phases, err := newFixture(func(seed uint64) *nn.Network {
			net := precisionNet(seed)
			net.SetPrecision(prec)
			return net
		}, 1, ds, 64).profiledStep(dist.Config{})
		if err != nil {
			return nil, err
		}
		t.Add(append([]string{prec.String(), identity,
			fmt.Sprintf("%.3f", res.TestAcc),
			fmt.Sprintf("%.4f", res.FinalLoss),
			scale}, phases...)...)
	}
	if err := mustDiffer(trajectories[0], trajectories[1],
		"f16 trajectory is bit-identical to f32 — the precision switch is not reaching the kernels"); err != nil {
		return nil, err
	}

	t.Note("Identity column is exact: the 2-epoch loss trajectory at P=1 must reproduce bitwise at P=4 flat, P=4 hierarchical (2x2) and P=4 overlapped (pinned Shards=4) — the f16 path runs the f32 kernels on binary16-rounded operands, so it keeps the fixed-tree accumulation discipline and decomposition stays invisible at half precision too. A negative control confirms f16 ≠ f32 bitwise.")
	t.Note("Accuracy parity on SynthImageNet is the paper's mixed-precision claim: binary16-rounded GEMM operands with float32 accumulation and float32 master weights, plus dynamic loss scaling (grow-on-stable, halve-on-overflow), match the full-precision run within noise. The loss-scale column is the scaler's final power of two.")
	t.Note("Phase columns profile twenty P=4 engine steps after one warm-up (fp16 wire codec, so every bucket is live): step wall is their median, the shares those of their summed profile. Convert is the binary16 rounding the f16 path adds. On this host binary16 has no arithmetic of its own, so it is a rounding, not a type: each GEMM operand is rounded once through binary16 in layer scratch (kernel.RoundHalf) and the product runs the same float32 micro-kernel as f32. The binary16 GEMM entry points benchmark/ probes are that same kernel after one decode of each packed operand, so they give these bits and cost that decode besides. f16 costs the rounding pass and cannot out-run f32; what it buys is the recipe's numerics (benchmark/'s kernel.gemm_f16_gflops vs kernel.gemm_f32_gflops probes record the packed entry points' ratio).")
	return t, nil
}

// precisionNet builds the dropout-free, BN-free conv net the study trains:
// per-replica RNG and batch statistics would break cross-P bit-identity for
// any precision, which would mask a precision-specific drift.
func precisionNet(seed uint64) *nn.Network {
	r := rng.New(seed)
	return nn.NewNetwork("mp-conv",
		nn.NewConv("conv1", r, 3, 4, 3, 1, 1, nn.ConvOpts{}),
		nn.NewReLU("relu1"),
		nn.NewMaxPool("pool1", 2, 2, 0),
		nn.NewFlatten(),
		nn.NewLinear("fc", r, 4*4*4, 4),
	)
}
