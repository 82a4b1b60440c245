package tensor

import (
	"fmt"

	"repro/internal/kernel"
)

// Precision selects the numeric precision of a layer's compute path. The
// trainer always holds float32 master weights; F16 only changes the values
// the GEMM operands carry (each rounded once to binary16, accumulation in
// float32), following the mixed-precision recipe of Akiba et al. that the
// paper cites for NVIDIA's half-precision DGX-1 result. There the halves
// feed half-precision arithmetic units; on this host binary16 has no
// arithmetic, so it is a rounding, not a type: the layers round each operand
// through binary16 in float32 scratch (kernel.RoundHalf) and run the F32
// kernels. F16 thus reproduces the recipe's numerics (one rounding per
// operand, loss scaling) at the cost of one rounding pass per operand; it
// does not halve the operand bytes and cannot out-run F32.
type Precision int

const (
	// F32 is the default full-precision path.
	F32 Precision = iota
	// F16 rounds each GEMM operand to binary16 (held in float32) and
	// accumulates in float32. Deterministic: a fixed one-rounding pass per
	// operand plus the kernels' fixed accumulation order, so results are
	// bit-identical under any worker count, chunking or topology — and to
	// GemmHalf over the packed operands, which widens them and runs Gemm —
	// but (deliberately) not equal to the F32 path's bits.
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

// Half is a dense, contiguous, row-major binary16 buffer with a shape. It
// deliberately mirrors Tensor's transparent representation. No layer holds
// one (the F16 layers round in float32, see Precision); it is the packed
// form benchmark/'s probes build with PackHalf and time through GemmHalf.
type Half struct {
	Shape []int
	Data  []uint16
}

// NewHalf allocates a zero-filled half buffer with the given shape. No layer
// calls it; benchmark/'s GEMM probes do.
func NewHalf(shape ...int) *Half {
	return &Half{Shape: append([]int(nil), shape...), Data: make([]uint16, numel(shape))}
}

// Numel returns the number of elements.
func (h *Half) Numel() int { return len(h.Data) }

// PackHalf rounds src into h (round-to-nearest-even, one rounding per
// element), resizing h to src's shape and reusing its storage when possible.
// The conversion is accounted to the profiler's convert phase. No layer calls
// it any more; benchmark/'s GEMM and pack probes do.
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

// widen decodes h into a float32 tensor of its shape (GemmHalf's operands).
func (h *Half) widen() *Tensor {
	t := &Tensor{Shape: h.Shape, Data: make([]float32, len(h.Data))}
	kernel.DecodeHalf(t.Data, h.Data)
	return t
}
