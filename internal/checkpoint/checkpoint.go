// Package checkpoint serializes model weights and optimizer state so long
// training runs can stop and resume bit-exactly. The format is a small
// self-describing binary container (magic, version, named float32 sections)
// written with encoding/binary — no external dependencies, stable across
// platforms (little-endian on disk).
//
// Resuming matters for the paper's setting: the 90-epoch runs the authors
// time are hours long even on 2048 nodes, and synchronous SGD requires all
// replicas to restart from the same state. The tests verify that a run
// interrupted and resumed from a checkpoint is bit-identical to an
// uninterrupted one.
//
// Beyond weights, a checkpoint can carry the extra pieces of engine state a
// mixed-precision or faulty compressed run needs to resume exactly:
//
//   - the dynamic loss scaler’s scale and counters
//     (CaptureLossScale/RestoreLossScale) — the scale is part of a
//     mixed-precision trajectory, since it decides which steps overflow;
//
//   - the 1-bit codec's per-slot error-feedback residuals
//     (CaptureOneBit/RestoreOneBit) — without them the first post-resume
//     quantization loses the carried error and every later step diverges
//     from the uninterrupted run;
//
//   - the fault-plan cursor: Checkpoint.Step is the engine's absolute step
//     counter, which keys dist.FaultPlan's deterministic schedule. Pass it
//     as dist.Config.StartStep when rebuilding the engine so the remaining
//     steps roll the same drops, stalls and deaths as the uninterrupted
//     run (and eviction timelines line up under Config.Elastic).
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/opt"
)

// magic identifies checkpoint files; version gates format changes.
const (
	magic   = 0x4c415253 // "LARS"
	version = 1
)

// Section is one named float32 tensor in a checkpoint.
type Section struct {
	Name string
	Data []float32
}

// Checkpoint is an ordered collection of named sections plus a step
// counter, sufficient to restore model + optimizer + schedule position.
type Checkpoint struct {
	Step     int64
	Sections []Section
}

// Add appends a section. Data is referenced, not copied.
func (c *Checkpoint) Add(name string, data []float32) {
	c.Sections = append(c.Sections, Section{Name: name, Data: data})
}

// Find returns the section with the given name, or nil.
func (c *Checkpoint) Find(name string) []float32 {
	for _, s := range c.Sections {
		if s.Name == name {
			return s.Data
		}
	}
	return nil
}

// FromNetwork captures all parameter values of net.
func FromNetwork(net *nn.Network, step int64) *Checkpoint {
	c := &Checkpoint{Step: step}
	for _, p := range net.Params() {
		c.Add("param:"+p.Name, p.W.Data)
	}
	return c
}

// ApplyToNetwork restores parameter values into net. Every parameter must
// be present with the right size.
func (c *Checkpoint) ApplyToNetwork(net *nn.Network) error {
	for _, p := range net.Params() {
		data := c.Find("param:" + p.Name)
		if data == nil {
			return fmt.Errorf("checkpoint: missing parameter %q", p.Name)
		}
		if len(data) != len(p.W.Data) {
			return fmt.Errorf("checkpoint: parameter %q has %d values, model wants %d",
				p.Name, len(data), len(p.W.Data))
		}
		copy(p.W.Data, data)
	}
	return nil
}

// ApplyToReplicas restores the same parameters into every network — the
// serve-side load path, where a pool of replicas must all carry the
// trained weights. Each network must match the checkpoint exactly, as in
// ApplyToNetwork.
func (c *Checkpoint) ApplyToReplicas(nets ...*nn.Network) error {
	for i, net := range nets {
		if err := c.ApplyToNetwork(net); err != nil {
			return fmt.Errorf("checkpoint: replica %d: %w", i, err)
		}
	}
	return nil
}

// oneBitPrefix names the sections carrying 1-bit codec residuals; the
// suffix is the codec slot id.
const oneBitPrefix = "codec1bit:slot:"

// CaptureOneBit appends the codec's per-slot error-feedback residuals as
// sections, one per slot. Pair with Checkpoint.Step (the engine's step
// counter at snapshot time) so a compressed faulty run can resume
// bit-identically: restore the residuals into a fresh codec with
// RestoreOneBit and rebuild the engine with dist.Config.StartStep set.
func (c *Checkpoint) CaptureOneBit(z *dist.OneBitCodec) {
	for _, slot := range z.Slots() {
		c.Add(oneBitPrefix+strconv.Itoa(slot), z.SlotResidual(slot))
	}
}

// RestoreOneBit installs every captured residual section into z. Sections
// with other names are ignored; a checkpoint without codec sections leaves
// z untouched (a run that never quantized has no state to restore).
func (c *Checkpoint) RestoreOneBit(z *dist.OneBitCodec) error {
	for _, s := range c.Sections {
		if !strings.HasPrefix(s.Name, oneBitPrefix) {
			continue
		}
		slot, err := strconv.Atoi(s.Name[len(oneBitPrefix):])
		if err != nil {
			return fmt.Errorf("checkpoint: bad codec section name %q: %w", s.Name, err)
		}
		z.RestoreSlot(slot, s.Data)
	}
	return nil
}

// lossScaleSection names the section carrying the dynamic loss scaler's
// state (see opt.LossScaler.State).
const lossScaleSection = "lossscale:state"

// CaptureLossScale appends the dynamic loss scaler's state — the current
// scale exponent and its overflow/growth counters — so a mixed-precision
// run can resume with the scaler exactly where it left off (the scale value
// affects which future steps overflow, so it is part of the trajectory).
func (c *Checkpoint) CaptureLossScale(s *opt.LossScaler) {
	c.Add(lossScaleSection, s.State())
}

// RestoreLossScale installs a captured scaler state into s. A checkpoint
// without the section leaves s untouched (a full-precision run has no
// scaler state to restore).
func (c *Checkpoint) RestoreLossScale(s *opt.LossScaler) error {
	data := c.Find(lossScaleSection)
	if data == nil {
		return nil
	}
	if err := s.SetState(data); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// Write serializes the checkpoint.
func (c *Checkpoint) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	writeU32 := func(v uint32) error { return binary.Write(bw, binary.LittleEndian, v) }
	if err := writeU32(magic); err != nil {
		return err
	}
	if err := writeU32(version); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, c.Step); err != nil {
		return err
	}
	if err := writeU32(uint32(len(c.Sections))); err != nil {
		return err
	}
	for _, s := range c.Sections {
		nameBytes := []byte(s.Name)
		if err := writeU32(uint32(len(nameBytes))); err != nil {
			return err
		}
		if _, err := bw.Write(nameBytes); err != nil {
			return err
		}
		if err := writeU32(uint32(len(s.Data))); err != nil {
			return err
		}
		for _, v := range s.Data {
			if err := binary.Write(bw, binary.LittleEndian, math.Float32bits(v)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Read deserializes a checkpoint. The input is untrusted (cmd/serve
// -checkpoint, Load): every count in it is a claim, so nothing is allocated
// ahead of the bytes that back it — a forged section size costs one read
// chunk, not the size it names — and every failure is a "checkpoint:" error.
func Read(r io.Reader) (*Checkpoint, error) {
	br := bufio.NewReader(r)
	var u32 uint32
	readU32 := func(what string) (uint32, error) {
		if err := binary.Read(br, binary.LittleEndian, &u32); err != nil {
			return 0, fmt.Errorf("checkpoint: reading %s: %w", what, err)
		}
		return u32, nil
	}
	m, err := readU32("magic")
	if err != nil {
		return nil, err
	}
	if m != magic {
		return nil, fmt.Errorf("checkpoint: bad magic %#x", m)
	}
	v, err := readU32("version")
	if err != nil {
		return nil, err
	}
	if v != version {
		return nil, fmt.Errorf("checkpoint: unsupported version %d", v)
	}
	c := &Checkpoint{}
	if err := binary.Read(br, binary.LittleEndian, &c.Step); err != nil {
		return nil, fmt.Errorf("checkpoint: reading step: %w", err)
	}
	count, err := readU32("section count")
	if err != nil {
		return nil, err
	}
	const maxSections = 1 << 20
	if count > maxSections {
		return nil, fmt.Errorf("checkpoint: implausible section count %d", count)
	}
	for i := uint32(0); i < count; i++ {
		nameLen, err := readU32("name length")
		if err != nil {
			return nil, err
		}
		if nameLen > 4096 {
			return nil, fmt.Errorf("checkpoint: implausible name length %d", nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, fmt.Errorf("checkpoint: reading section name: %w", err)
		}
		n, err := readU32("section size")
		if err != nil {
			return nil, err
		}
		data, err := readFloats(br, n)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: section %q claims %d values: %w", name, n, err)
		}
		c.Add(string(name), data)
	}
	return c, nil
}

// readChunk is how many values readFloats takes on trust at a time: 256 KiB
// of payload.
const readChunk = 1 << 16

// readFloats reads n little-endian float32 values, growing the result with
// the data actually delivered: each read allocates room for at most as many
// values as have already arrived (one readChunk to start), so a truncated or
// forged section fails at the first short read having cost a small multiple
// of the bytes it did carry. (n stays a uint32 throughout: 4·n does not fit
// an int on 32-bit hosts.)
func readFloats(r io.Reader, n uint32) ([]float32, error) {
	data := make([]float32, 0, min(n, readChunk))
	raw := make([]byte, 4*min(n, readChunk))
	for left := n; left > 0; {
		k := min(left, readChunk)
		if _, err := io.ReadFull(r, raw[:4*k]); err != nil {
			return nil, err
		}
		have := len(data)
		data = slices.Grow(data, int(min(left, uint32(max(have, readChunk)))))[:have+int(k)]
		for j := range data[have:] {
			data[have+j] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*j:]))
		}
		left -= k
	}
	return data, nil
}

// Save writes the checkpoint to path atomically (write to temp + rename).
func (c *Checkpoint) Save(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := c.Write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// Load reads a checkpoint from path.
func Load(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
