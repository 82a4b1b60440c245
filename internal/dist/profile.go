package dist

import (
	"fmt"

	"repro/internal/kernel"
)

// ProfileStats decomposes training-step wall time into the hot-loop phases
// the paper's throughput analysis cares about: GEMM (the conv/linear
// compute the batch feeds), im2col/col2im lowering, the gradient reduction
// arithmetic, codec transforms, and the unattributed remainder (layer
// glue, pooling, activations, scheduling). All values are nanoseconds.
//
// The decomposition is exact by construction: the profiler attributes
// every instant of the step window to at most one phase (when phases
// overlap across goroutines — a reduction firing inside the backward pass
// under Config.Overlap — the higher-priority phase wins), and OtherNS is
// the window remainder, so
//
//	GemmNS + Im2colNS + ConvertNS + ReduceNS + CodecNS + OtherNS == WallNS
//
// holds for every step. Populated only when Config.Profile is set; the
// profiler is process-global, so profile one engine at a time.
type ProfileStats struct {
	// GemmNS is wall time inside the GEMM kernels.
	GemmNS int64
	// Im2colNS is wall time inside the im2col/col2im lowering.
	Im2colNS int64
	// ConvertNS is wall time inside precision conversions — the binary16
	// packing/unpacking of the mixed-precision path. Zero under F32.
	ConvertNS int64
	// ReduceNS is wall time inside the gradient-reduction arithmetic.
	ReduceNS int64
	// CodecNS is wall time inside payload codec transforms.
	CodecNS int64
	// OtherNS is the unattributed remainder of the step window.
	OtherNS int64
	// WallNS is the measured step wall time, the sum of the six phases.
	WallNS int64
}

// Add accumulates o into p.
func (p *ProfileStats) Add(o ProfileStats) {
	p.GemmNS += o.GemmNS
	p.Im2colNS += o.Im2colNS
	p.ConvertNS += o.ConvertNS
	p.ReduceNS += o.ReduceNS
	p.CodecNS += o.CodecNS
	p.OtherNS += o.OtherNS
	p.WallNS += o.WallNS
}

// Accounted returns the sum of the six phase buckets, which equals WallNS.
func (p ProfileStats) Accounted() int64 {
	return p.GemmNS + p.Im2colNS + p.ConvertNS + p.ReduceNS + p.CodecNS + p.OtherNS
}

// Share returns ns as a fraction of the wall time (0 when nothing ran).
func (p ProfileStats) Share(ns int64) float64 {
	if p.WallNS == 0 {
		return 0
	}
	return float64(ns) / float64(p.WallNS)
}

// String renders the phase shares as a compact report line.
func (p ProfileStats) String() string {
	return fmt.Sprintf("wall=%.1fms gemm=%.1f%% im2col=%.1f%% convert=%.1f%% reduce=%.1f%% codec=%.1f%% other=%.1f%%",
		float64(p.WallNS)/1e6,
		100*p.Share(p.GemmNS), 100*p.Share(p.Im2colNS), 100*p.Share(p.ConvertNS),
		100*p.Share(p.ReduceNS), 100*p.Share(p.CodecNS), 100*p.Share(p.OtherNS))
}

// profileDelta converts a pair of profiler snapshots into ProfileStats:
// the per-phase deltas plus the unattributed remainder of the window. The
// profiler's exclusive attribution guarantees the deltas never exceed the
// window, so OtherNS is non-negative.
func profileDelta(base [kernel.NumPhases]int64, startNS int64) ProfileStats {
	acc, now := kernel.ProfileSnapshot()
	p := ProfileStats{
		GemmNS:    acc[kernel.PhaseGemm] - base[kernel.PhaseGemm],
		Im2colNS:  acc[kernel.PhaseIm2col] - base[kernel.PhaseIm2col],
		ConvertNS: acc[kernel.PhaseConvert] - base[kernel.PhaseConvert],
		ReduceNS:  acc[kernel.PhaseReduce] - base[kernel.PhaseReduce],
		CodecNS:   acc[kernel.PhaseCodec] - base[kernel.PhaseCodec],
		WallNS:    now - startNS,
	}
	if other := p.WallNS - (p.GemmNS + p.Im2colNS + p.ConvertNS + p.ReduceNS + p.CodecNS); other > 0 {
		p.OtherNS = other
	}
	return p
}
