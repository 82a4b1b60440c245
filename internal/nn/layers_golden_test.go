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

// goldenHash is the FNV-64a of t's bits with every NaN written as the one
// quiet NaN: which NaN payload an x86 add or compare hands on is operand
// order, not arithmetic, so the golden pins that a value is NaN, not which.
func goldenHash(t *tensor.Tensor) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range t.Data {
		u := math.Float32bits(v)
		if v != v {
			u = 0x7fc00000
		}
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
	elementwiseGoldenDump(&out)
	return out.String()
}

// goldenPlant overwrites fixed positions of x with the values whose handling
// a max, a ReLU or a batch statistic must pin: NaN, ±Inf and ±0 on every
// seventh element, exact ties with the left neighbour and with the element
// two back (a 3-wide window holds both), and, when w > 0 and the first plane
// is at least 2×4, a 2×2 block of NaN and a 2×2 block of −Inf at its top
// left, so some pooling windows hold nothing a strict > can pick.
func goldenPlant(x *tensor.Tensor, w int) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	specials := []float32{nan, inf, -inf, 0, float32(math.Copysign(0, -1))}
	d := x.Data
	for i := range d {
		switch {
		case i%7 == 0:
			d[i] = specials[(i/7)%len(specials)]
		case i%11 == 3:
			d[i] = d[i-1]
		case i%13 == 4:
			d[i] = d[i-2]
		}
	}
	if w >= 4 && x.Dims() == 4 && x.Shape[2] >= 2 {
		for r := 0; r < 2; r++ {
			d[r*w], d[r*w+1] = nan, nan
			d[r*w+2], d[r*w+3] = -inf, -inf
		}
	}
}

// elementwiseGoldenDump renders the bits of the element-wise layers —
// MaxPool2D at 2/2/0, 3/2/1 and 2/1/1 (whose edge windows hold 1×1, 1×2
// and 2×1 in-bounds parts), ReLU, and BatchNorm on NCHW and on [N, C]
// input — on inputs planted with NaN, ±Inf, ±0 and ties. Each layer runs
// two training steps (small → large input; dy is planted too, and dx pins
// MaxPool's argmax) and then one eval step, whose row has y only. These
// layers have no precision, so each runs once.
func elementwiseGoldenDump(out *strings.Builder) {
	pool := [][]int{{2, 3, 7, 9}, {2, 3, 12, 12}, {2, 3, 7, 9}}
	for _, lc := range []struct {
		name   string
		layer  Layer
		inputs [][]int
	}{
		{"maxpool-k2s2p0", NewMaxPool("p", 2, 2, 0), pool},
		{"maxpool-k3s2p1", NewMaxPool("p", 3, 2, 1), pool},
		{"maxpool-k2s1p1", NewMaxPool("p", 2, 1, 1), pool},
		{"relu", NewReLU("r"), [][]int{{2, 3, 7, 9}, {1, 2, 5, 5}, {2, 3, 7, 9}}},
		{"batchnorm-nchw", NewBatchNorm("bn", 3), [][]int{{2, 3, 12, 12}, {3, 3, 5, 7}, {2, 3, 12, 12}}},
		{"batchnorm-nc", NewBatchNorm("bn", 6), [][]int{{5, 6}, {130, 6}, {5, 6}}},
	} {
		for i, prm := range lc.layer.Params() {
			goldenFill(prm.W, uint64(100+i), 1.0/16)
		}
		for step, shape := range lc.inputs {
			x := tensor.New(shape...)
			goldenFill(x, uint64(200+step), 1)
			w := 0
			if len(shape) == 4 {
				w = shape[3]
			}
			bn, isBN := lc.layer.(*BatchNorm)
			if isBN {
				// ±0 and ties everywhere; NaN and ±Inf where they poison one
				// channel, not all: a NaN in the last channel at the second
				// step (its statistics, and from then on its running
				// statistics, are NaN) and ±Inf in channel 0 at the eval
				// step (normalized by finite running statistics).
				for i := range x.Data {
					if i%5 == 1 {
						x.Data[i] = float32(math.Copysign(0, float64(x.Data[i])))
					} else if i%9 == 2 {
						x.Data[i] = x.Data[i-1]
					}
				}
				switch step {
				case 1:
					x.Data[len(x.Data)-1] = float32(math.NaN())
				case 2:
					x.Data[0], x.Data[bn.C] = float32(math.Inf(1)), float32(math.Inf(-1))
				}
			} else {
				goldenPlant(x, w)
			}
			train := step < len(lc.inputs)-1
			y := lc.layer.Forward(x, train)
			fmt.Fprintf(out, "%s step=%d train=%v x=%v y=%016x", lc.name, step, train, shape, goldenHash(y))
			if train {
				dy := tensor.New(y.Shape...)
				goldenFill(dy, uint64(300+step), 1.0/4)
				if isBN {
					// Signed zeros only: one NaN in dy would make every
					// channel's Σdy NaN.
					for i := 3; i < len(dy.Data); i += 5 {
						dy.Data[i] = float32(math.Copysign(0, float64(dy.Data[i])))
					}
				} else {
					goldenPlant(dy, 0)
				}
				dx := lc.layer.Backward(dy)
				fmt.Fprintf(out, " dx=%016x", goldenHash(dx))
				for _, prm := range lc.layer.Params() {
					fmt.Fprintf(out, " g[%s]=%016x", prm.Name, goldenHash(prm.G))
				}
			}
			if isBN {
				fmt.Fprintf(out, " mean=%016x var=%016x", goldenHash(bn.RunningMean), goldenHash(bn.RunningVar))
			}
			out.WriteByte('\n')
		}
	}
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
