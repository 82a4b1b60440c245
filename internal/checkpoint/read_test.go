package checkpoint

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/models"
)

// oversizedSection is the 29-byte input that used to kill the process: a
// well-formed header and one section, "x", claiming 0xFFFFFFFF values (16 GiB
// of payload) with not a byte of it present.
func oversizedSection() []byte {
	var b bytes.Buffer
	for _, v := range []any{uint32(magic), uint32(version), int64(7), uint32(1), uint32(1), byte('x'), uint32(0xFFFFFFFF)} {
		binary.Write(&b, binary.LittleEndian, v)
	}
	return b.Bytes()
}

// readAllocs runs Read on in and returns what it returned plus the bytes the
// call allocated.
func readAllocs(in []byte) (*Checkpoint, error, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := Read(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	return c, err, after.TotalAlloc - before.TotalAlloc
}

// TestReadRejectsOversizedSection: a section's element count is a claim, not
// a size to allocate. The forged header must come back as a checkpoint error
// promptly and cheaply — at the parent commit this input ran make([]float32,
// 0xFFFFFFFF) and died with "fatal error: runtime: out of memory" (amd64) or
// panicked "makeslice: len out of range" (GOARCH=386).
func TestReadRejectsOversizedSection(t *testing.T) {
	in := oversizedSection()
	if len(in) != 29 {
		t.Fatalf("input is %d bytes, want the 29-byte header", len(in))
	}
	start := time.Now()
	_, err, alloc := readAllocs(in)
	if err == nil || !strings.HasPrefix(err.Error(), "checkpoint:") {
		t.Fatalf("oversized section: err = %v, want a checkpoint: error", err)
	}
	// The allocation bound below pins the property deterministically; the
	// wall bound only has to catch the old 16 GiB make, so it leaves room
	// for a loaded machine.
	if took := time.Since(start); took > time.Second {
		t.Errorf("rejecting 29 bytes took %v, want < 1s", took)
	}
	if alloc >= 1<<20 {
		t.Errorf("rejecting 29 bytes allocated %d bytes, want < 1 MiB", alloc)
	}
}

// TestReadRejectsEveryTruncation cuts a real FromNetwork checkpoint at every
// field boundary (and one byte either side of it): each strict prefix must be
// a checkpoint error, never a panic and never a short success.
func TestReadRejectsEveryTruncation(t *testing.T) {
	net := models.NewMLP(models.MicroConfig{Classes: 4, InC: 3, InH: 4, InW: 4, Width: 4, Seed: 1})
	c := FromNetwork(net, 12)
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	bounds := []int{0, 4, 8, 16, 20} // magic, version, step, section count
	off := 20
	for _, s := range c.Sections {
		for _, field := range []int{4, len(s.Name), 4, 4 * len(s.Data)} { // name length, name, size, payload
			off += field
			bounds = append(bounds, off)
		}
	}
	if off != len(full) {
		t.Fatalf("walked %d bytes of a %d-byte checkpoint", off, len(full))
	}
	for _, b := range bounds {
		for _, cut := range []int{b - 1, b, b + 1} {
			if cut < 0 || cut >= len(full) {
				continue
			}
			if _, err := Read(bytes.NewReader(full[:cut])); err == nil || !strings.HasPrefix(err.Error(), "checkpoint:") {
				t.Fatalf("truncation at %d of %d: err = %v, want a checkpoint: error", cut, len(full), err)
			}
		}
	}
	if _, err := Read(bytes.NewReader(full)); err != nil {
		t.Fatalf("the untruncated checkpoint: %v", err)
	}
}

// FuzzRead: Read never panics, never allocates beyond a small multiple of
// its input (plus one read chunk), fails only with checkpoint: errors, and
// whatever it accepts round-trips through Write byte for byte. The committed
// corpus (testdata/fuzz/FuzzRead) holds a valid checkpoint, truncations of
// it, the oversized-section header and a bad magic; CI replays it.
func FuzzRead(f *testing.F) {
	f.Add(oversizedSection())
	f.Fuzz(func(t *testing.T, in []byte) {
		c, err, alloc := readAllocs(in)
		if limit := uint64(1<<20 + 64*len(in)); alloc > limit {
			t.Fatalf("Read allocated %d bytes for a %d-byte input (limit %d)", alloc, len(in), limit)
		}
		if err != nil {
			if !strings.HasPrefix(err.Error(), "checkpoint:") {
				t.Fatalf("error without the package prefix: %v", err)
			}
			return
		}
		var out bytes.Buffer
		if err := c.Write(&out); err != nil {
			t.Fatal(err)
		}
		// Read stops after the last section it was promised; what it
		// consumed must be exactly what Write produces.
		if out.Len() > len(in) || !bytes.Equal(out.Bytes(), in[:out.Len()]) {
			t.Fatalf("accepted input does not round-trip: read %d sections, wrote %d bytes of %d", len(c.Sections), out.Len(), len(in))
		}
	})
}
