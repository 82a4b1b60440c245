package dist

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/compress"
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

// OneBitCodec is Seide et al.'s 1-bit SGD as a dist payload codec: one sign
// bit per coordinate plus two scales on the wire (~32x smaller), with the
// quantization error carried per slot as the next step's residual — the
// error feedback that makes the scheme converge.
type OneBitCodec struct {
	mu    sync.Mutex
	slots map[int]*compress.Quantizer
}

// NewOneBitCodec returns a 1-bit codec with empty error-feedback state.
func NewOneBitCodec() *OneBitCodec {
	return &OneBitCodec{slots: make(map[int]*compress.Quantizer)}
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
	z := c.slots[slot]
	if z == nil {
		return nil
	}
	return append([]float32(nil), z.Residual()...)
}

// RestoreSlot installs a residual for slot (copying it), creating the
// slot's quantizer at the residual's length — the restore half of the
// checkpoint round trip.
func (c *OneBitCodec) RestoreSlot(slot int, residual []float32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	z := compress.NewQuantizer(len(residual))
	z.SetResidual(residual)
	c.slots[slot] = z
}

// Transform implements Codec.
func (c *OneBitCodec) Transform(slot int, data []float32) int64 {
	c.mu.Lock()
	z := c.slots[slot]
	if z == nil {
		z = compress.NewQuantizer(len(data))
		c.slots[slot] = z
	}
	c.mu.Unlock()
	q := z.Encode(data)
	q.Decode(data)
	return q.Bytes()
}
