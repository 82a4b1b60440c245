package dist

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/kernel"
)

// Codec compresses reduction payloads on the (simulated) wire. The engine
// passes every logical shard's bucket payload through Transform before
// reduction, so the lossy wire format feeds back into training exactly as
// it would on real hardware, while CommStats.Bytes records the wire size
// instead of the raw 4n float bytes.
//
// Transform is keyed by slot — a stable (shard, bucket) identifier — so
// stateful codecs (1-bit SGD's error feedback) carry per-payload residual
// state across steps. Slots are keyed by the logical shard, not the
// physical worker, which keeps codec numerics independent of the worker
// count like everything else in the engine. Different slots may be
// transformed concurrently; a slot is never used by two goroutines at once.
type Codec interface {
	// Name identifies the codec in logs and stats tables.
	Name() string
	// Transform rounds data through the codec's wire representation in
	// place (lossy) and returns the payload's wire byte count.
	Transform(slot int, data []float32) int64
}

// FP16Codec exchanges gradients in IEEE half precision: 2 bytes per
// coordinate on the wire, values rounded through float16 on the way.
type FP16Codec struct{}

// Name implements Codec.
func (FP16Codec) Name() string { return "fp16" }

// Transform implements Codec: one in-place pass of kernel.RoundHalf, whose
// every element is the decode of its binary16 encoding, so the payload
// carries the wire's values without a half buffer or a second pass.
func (FP16Codec) Transform(_ int, data []float32) int64 {
	kernel.RoundHalf(data)
	return 2 * int64(len(data))
}

// ParseCodec is the inverse of Name: "fp16" selects FP16Codec, "1bit" a
// fresh OneBitCodec, and "" the raw float32 wire (a nil Codec).
func ParseCodec(name string) (Codec, error) {
	if name == "" {
		return nil, nil
	}
	for _, c := range []Codec{FP16Codec{}, NewOneBitCodec()} {
		if c.Name() == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("dist: unknown codec %q (want \"\" | fp16 | 1bit)", name)
}

// OneBitCodec is Seide et al.'s 1-bit SGD ("1-bit stochastic gradient
// descent", 2014, cited in the paper's related work as the other lever on
// the communication bottleneck) as a dist payload codec: where LARS cuts the
// number of gradient exchanges by enabling huge batches, 1-bit SGD shrinks
// each one ~32x. The wire carries one sign bit per coordinate plus two
// scales — the mean magnitudes of the non-negative and the negative
// coordinates — and the quantization error is carried per slot as the next
// step's residual: the error feedback that makes the scheme converge.
type OneBitCodec struct {
	mu    sync.Mutex
	slots map[int][]float32
}

// NewOneBitCodec returns a 1-bit codec with empty error-feedback state.
func NewOneBitCodec() *OneBitCodec {
	return &OneBitCodec{slots: make(map[int][]float32)}
}

// Name implements Codec.
func (c *OneBitCodec) Name() string { return "1bit" }

// Slots returns the slot ids currently carrying error-feedback state, in
// ascending order — the state internal/checkpoint snapshots so a 1-bit
// run can resume bit-identically.
func (c *OneBitCodec) Slots() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, 0, len(c.slots))
	for slot := range c.slots {
		out = append(out, slot)
	}
	sort.Ints(out)
	return out
}

// SlotResidual returns a copy of the error-feedback residual carried for
// slot, or nil when the slot has no state yet.
func (c *OneBitCodec) SlotResidual(slot int) []float32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r := c.slots[slot]; r != nil {
		return append([]float32(nil), r...)
	}
	return nil
}

// RestoreSlot installs a copy of residual for slot, whose payloads must then
// have its length — the restore half of the checkpoint round trip.
func (c *OneBitCodec) RestoreSlot(slot int, residual []float32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.slots[slot] = append(make([]float32, 0, len(residual)), residual...)
}

// Transform implements Codec in two in-place passes. The first adds the
// slot's residual into data and sums the magnitudes of each sign class in
// float64; the second replaces every value v by its reconstruction — the
// non-negative class's mean for v >= 0, minus the negative class's mean
// otherwise (NaN included) — and keeps v minus it as the new residual. The
// wire carries the sign bits in 64-bit words plus two float32 scales and a
// length: 8·⌈n/64⌉+12 bytes.
func (c *OneBitCodec) Transform(slot int, data []float32) int64 {
	c.mu.Lock()
	residual := c.slots[slot]
	if residual == nil {
		residual = make([]float32, len(data))
		c.slots[slot] = residual
	}
	c.mu.Unlock()
	if len(data) != len(residual) {
		panic(fmt.Sprintf("dist: 1-bit payload has %d coords, slot %d carries %d", len(data), slot, len(residual)))
	}
	var posSum, negSum float64
	var posCount, negCount int
	for i := range data {
		v := data[i] + residual[i]
		data[i] = v
		if v >= 0 {
			posSum += float64(v)
			posCount++
		} else {
			negSum += float64(-v)
			negCount++
		}
	}
	var posScale, negScale float32
	if posCount > 0 {
		posScale = float32(posSum / float64(posCount))
	}
	if negCount > 0 {
		negScale = float32(negSum / float64(negCount))
	}
	for i, v := range data {
		recon := -negScale
		if v >= 0 {
			recon = posScale
		}
		residual[i] = v - recon
		data[i] = recon
	}
	return 8*int64((len(data)+63)/64) + 12
}
