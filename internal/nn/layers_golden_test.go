package nn

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/layers.golden from the current layers")

// goldenFill overwrites t using integer arithmetic only (rng's SplitMix64
// bits → a 24-bit integer times a power of two, in [-4, 4)·scale for a
// power-of-two scale), so the golden's inputs do not depend on any libm
// routine and are the same on every GOARCH.
func goldenFill(t *tensor.Tensor, seed uint64, scale float32) {
	r := rng.New(seed)
	for i := range t.Data {
		t.Data[i] = (r.Float32()*8 - 4) * scale
	}
}

func goldenHash(t *tensor.Tensor) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range t.Data {
		u := math.Float32bits(v)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// layersGoldenDump drives each GEMM-lowered layer at both precisions through
// three steps whose input shape goes small → large → small (the scratch
// pattern of a progressive-resolution run: slots allocated, grown, revisited;
// binary16 packs resized in place) and renders, per step, the FNV-64a of the
// bits of the output, the input gradient and every parameter gradient.
// Gradients are not zeroed between steps, so steps two and three also pin the
// accumulating (beta = 1) dW product on non-zero contents.
func layersGoldenDump() string {
	conv := [][]int{{2, 4, 12, 12}, {2, 4, 24, 24}, {2, 4, 12, 12}}
	fc := [][]int{{3, 300}, {6, 300}, {3, 300}} // Linear's width is fixed; its batch moves
	var out strings.Builder
	for _, lc := range []struct {
		name   string
		build  func(r *rng.Rand) Layer
		inputs [][]int
	}{
		{"conv-bias-s2p1", func(r *rng.Rand) Layer { return NewConv("c", r, 4, 6, 3, 2, 1, ConvOpts{}) }, conv},
		{"conv-nobias", func(r *rng.Rand) Layer { return NewConv("c", r, 4, 5, 3, 1, 1, ConvOpts{NoBias: true}) }, conv},
		{"groupconv-g2", func(r *rng.Rand) Layer { return NewGroupedConv("g", r, 4, 6, 3, 1, 1, 2, ConvOpts{}) }, conv},
		{"linear", func(r *rng.Rand) Layer { return NewLinear("fc", r, 300, 7) }, fc},
	} {
		for _, p := range []tensor.Precision{tensor.F32, tensor.F16} {
			layer := lc.build(rng.New(1))
			for i, prm := range layer.Params() {
				goldenFill(prm.W, uint64(100+i), 1.0/16)
			}
			layer.(PrecisionLayer).SetPrecision(p)
			for step, shape := range lc.inputs {
				x := tensor.New(shape...)
				goldenFill(x, uint64(200+step), 1)
				y := layer.Forward(x, true)
				dy := tensor.New(y.Shape...)
				goldenFill(dy, uint64(300+step), 1.0/4)
				dx := layer.Backward(dy)
				fmt.Fprintf(&out, "%s/%s step=%d x=%v y=%016x dx=%016x", lc.name, p, step, shape, goldenHash(y), goldenHash(dx))
				for _, prm := range layer.Params() {
					fmt.Fprintf(&out, " g[%s]=%016x", prm.Name, goldenHash(prm.G))
				}
				out.WriteByte('\n')
			}
		}
	}
	return out.String()
}

// TestLayersGolden pins the bits Conv2D, GroupedConv2D and Linear produce at
// F32 and F16 against the file generated before the layers' twin f32/f16
// call sites were folded onto one GEMM call per product: a refactor of the
// operand packing or the GEMM path below it must not move a bit. An intended
// numeric change regenerates the file with -update and reviews the diff.
func TestLayersGolden(t *testing.T) {
	const path = "testdata/layers.golden"
	got := layersGoldenDump()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden has %d lines, the layers produced %d", len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d differs from golden\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
