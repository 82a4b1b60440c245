// Package compress implements 1-bit gradient quantization with error
// feedback (Seide et al. 2014, "1-bit stochastic gradient descent", cited
// in the paper's related work as the other lever on the communication
// bottleneck: where LARS reduces the *number* of gradient exchanges by
// enabling huge batches, 1-bit SGD shrinks each exchange ~32x).
//
// The scheme: add the residual carried over from the previous step, send
// only the sign of each coordinate plus two per-tensor scales (the mean
// magnitude of the positive and negative coordinates), and keep the
// quantization error as the next step's residual. Error feedback is what
// makes the scheme converge — the tests demonstrate both that and the
// failure mode without it. dist.OneBitCodec carries one Quantizer per
// bucket slot on the engine's wire; this package also holds the FP16
// codec's slice converters.
package compress

import "fmt"

// OneBit is a quantized gradient: one bit per coordinate plus two scales.
type OneBit struct {
	// Bits holds one sign bit per coordinate, LSB-first within each word.
	Bits []uint64
	// PosScale and NegScale are the reconstruction magnitudes for
	// positive (bit=1) and negative (bit=0) coordinates.
	PosScale float32
	NegScale float32
	// N is the coordinate count.
	N int
}

// Bytes returns the wire size of the quantized gradient.
func (q *OneBit) Bytes() int64 {
	return int64(len(q.Bits))*8 + 8 /* two float32 scales */ + 4 /* length */
}

// Quantizer carries the per-tensor error-feedback residual between steps.
type Quantizer struct {
	residual []float32
}

// NewQuantizer returns a quantizer for gradients of n coordinates.
func NewQuantizer(n int) *Quantizer {
	return &Quantizer{residual: make([]float32, n)}
}

// Encode quantizes grad (plus the carried residual) to one bit per
// coordinate and updates the residual with the quantization error. The
// input slice is not modified.
func (z *Quantizer) Encode(grad []float32) *OneBit {
	if len(grad) != len(z.residual) {
		panic(fmt.Sprintf("compress: gradient has %d coords, quantizer built for %d", len(grad), len(z.residual)))
	}
	n := len(grad)
	q := &OneBit{Bits: make([]uint64, (n+63)/64), N: n}
	// First pass: effective value and scale accumulation.
	var posSum, negSum float64
	var posCount, negCount int
	eff := make([]float32, n)
	for i, g := range grad {
		v := g + z.residual[i]
		eff[i] = v
		if v >= 0 {
			posSum += float64(v)
			posCount++
		} else {
			negSum += float64(-v)
			negCount++
		}
	}
	if posCount > 0 {
		q.PosScale = float32(posSum / float64(posCount))
	}
	if negCount > 0 {
		q.NegScale = float32(negSum / float64(negCount))
	}
	// Second pass: bits and residual update.
	for i, v := range eff {
		var recon float32
		if v >= 0 {
			q.Bits[i/64] |= 1 << (uint(i) % 64)
			recon = q.PosScale
		} else {
			recon = -q.NegScale
		}
		z.residual[i] = v - recon
	}
	return q
}

// Decode reconstructs the quantized gradient into dst (len N).
func (q *OneBit) Decode(dst []float32) {
	if len(dst) != q.N {
		panic(fmt.Sprintf("compress: decode into %d coords, want %d", len(dst), q.N))
	}
	for i := range dst {
		if q.Bits[i/64]&(1<<(uint(i)%64)) != 0 {
			dst[i] = q.PosScale
		} else {
			dst[i] = -q.NegScale
		}
	}
}

// Residual returns the carried error-feedback residual. The slice is the
// quantizer's live state — copy it before mutating or serializing lazily.
func (z *Quantizer) Residual() []float32 { return z.residual }

// SetResidual overwrites the carried residual (copying r), restoring
// checkpointed error-feedback state. The length must match the quantizer's.
func (z *Quantizer) SetResidual(r []float32) {
	if len(r) != len(z.residual) {
		panic(fmt.Sprintf("compress: residual has %d coords, quantizer built for %d", len(r), len(z.residual)))
	}
	copy(z.residual, r)
}
