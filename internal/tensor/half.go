package tensor

import (
	"fmt"

	"repro/internal/kernel"
)

// Precision selects the storage precision of a layer's compute path. The
// trainer always holds float32 master weights; F16 only changes how GEMM
// operands are stored while they flow through the kernels (binary16 storage,
// float32 accumulation), following the mixed-precision recipe of Akiba et
// al. that the paper cites for NVIDIA's half-precision DGX-1 result. There
// the halves feed half-precision arithmetic units; on this host they are
// widened and run the F32 path's own instructions, so F16 reproduces the
// recipe's numerics (one rounding per operand, loss scaling) and halves the
// operand bytes, but costs a pack and a decode and cannot out-run F32.
type Precision int

const (
	// F32 is the default full-precision path.
	F32 Precision = iota
	// F16 stores GEMM operands as binary16 and accumulates in
	// float32. Deterministic: a fixed one-rounding pack per operand plus
	// the kernels' fixed accumulation order, so results are bit-identical
	// under any worker count, chunking or topology — but (deliberately)
	// not equal to the F32 path's bits.
	F16
)

// String implements fmt.Stringer.
func (p Precision) String() string {
	switch p {
	case F32:
		return "f32"
	case F16:
		return "f16"
	default:
		return fmt.Sprintf("precision(%d)", int(p))
	}
}

// ParsePrecision converts a flag string to a Precision.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "f32", "fp32", "float32", "":
		return F32, nil
	case "f16", "fp16", "half":
		return F16, nil
	default:
		return F32, fmt.Errorf("tensor: unknown precision %q (want f32 or f16)", s)
	}
}

// Half is a dense, contiguous, row-major binary16 buffer with a shape — the
// storage type of the F16 compute path. It deliberately mirrors Tensor's
// transparent representation; layers keep a Half scratch per operand and
// repack it each step.
type Half struct {
	Shape []int
	Data  []uint16
}

// NewHalf allocates a zero-filled half buffer with the given shape.
func NewHalf(shape ...int) *Half {
	return &Half{Shape: append([]int(nil), shape...), Data: make([]uint16, numel(shape))}
}

// Numel returns the number of elements.
func (h *Half) Numel() int { return len(h.Data) }

// PackHalf rounds src into h (round-to-nearest-even, one rounding per
// element), resizing h to src's shape and reusing its storage when possible.
// The conversion is accounted to the profiler's convert phase.
func PackHalf(h *Half, src *Tensor) {
	defer kernel.StartPhase(kernel.PhaseConvert).End()
	n := len(src.Data)
	h.Shape = append(h.Shape[:0], src.Shape...)
	if cap(h.Data) < n {
		h.Data = make([]uint16, n)
	}
	h.Data = h.Data[:n]
	kernel.EncodeHalf(h.Data, src.Data)
}
