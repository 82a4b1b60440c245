package models

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/networks.golden and testdata/evalforward.golden from the current builders")

// goldenFill overwrites t using integer arithmetic only (rng's SplitMix64
// bits scaled into [-4, 4)·scale), the fill nn's layers.golden uses.
func goldenFill(t *tensor.Tensor, seed uint64, scale float32) {
	r := rng.New(seed)
	for i := range t.Data {
		t.Data[i] = (r.Float32()*8 - 4) * scale
	}
}

// bitsHash is the FNV-64a of the float32 bit patterns of every tensor, in
// order.
func bitsHash(ts ...*tensor.Tensor) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, t := range ts {
		for _, v := range t.Data {
			u := math.Float32bits(v)
			b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

func weightsHash(net *nn.Network) uint64 {
	var ws []*tensor.Tensor
	for _, p := range net.Params() {
		ws = append(ws, p.W)
	}
	return bitsHash(ws...)
}

// networksGoldenDump renders, for every micro model at three configs, the
// network name, every parameter's name and shape, and the FNV-64a of the
// initial weights, of one train-mode forward's output on a fixed batch (so
// the dropout stream is covered) and of every gradient after Backward; and,
// outside -short, the weight hash of the full-size networks.
func networksGoldenDump(full bool) string {
	var out strings.Builder
	for _, m := range []struct {
		name  string
		build func(MicroConfig) *nn.Network
	}{
		{"micro-alexnet", NewMicroAlexNet},
		{"micro-alexnet-lrn", func(c MicroConfig) *nn.Network { c.UseLRN = true; return NewMicroAlexNet(c) }},
		{"micro-convnet", NewMicroConvNet},
		{"micro-resnet", func(c MicroConfig) *nn.Network { return must(microResNet(c).build()).Build(rng.New(c.Seed)) }},
		{"mlp", NewMLP},
	} {
		for _, c := range []struct {
			label string
			cfg   MicroConfig
		}{
			{"defaults", MicroConfig{Seed: 7}},
			{"w4-24x24-c5", MicroConfig{Classes: 5, InH: 24, Width: 4, Seed: 11}},
			{"12x20", MicroConfig{InH: 12, InW: 20, Seed: 3}},
		} {
			net := m.build(c.cfg)
			cfg := c.cfg.withDefaults()
			fmt.Fprintf(&out, "%s/%s name=%s params=%d weights=%016x\n", m.name, c.label, net.Name(), net.NumParams(), weightsHash(net))
			for _, p := range net.Params() {
				fmt.Fprintf(&out, "  %s %v\n", p.Name, p.W.Shape)
			}
			x := tensor.New(3, cfg.InC, cfg.InH, cfg.InW)
			goldenFill(x, 200, 1)
			y := net.Forward(x, true)
			dy := tensor.New(y.Shape...)
			goldenFill(dy, 300, 1.0/4)
			net.ZeroGrad()
			net.Backward(dy)
			fmt.Fprintf(&out, "  y=%v %016x\n", y.Shape, bitsHash(y))
			for _, p := range net.Params() {
				fmt.Fprintf(&out, "  g[%s]=%016x\n", p.Name, bitsHash(p.G))
			}
		}
	}
	if full {
		for _, m := range []struct {
			name  string
			build func(r *rng.Rand) *nn.Network
		}{
			{"resnet18", must(resNet18().build()).Build},
			{"resnet50", ResNet50Spec().Build},
			{"alexnet", AlexNetSpec().Build},
			{"alexnet-bn", AlexNetBNSpec().Build},
		} {
			net := m.build(rng.New(1))
			fmt.Fprintf(&out, "%s params=%d weights=%016x\n", m.name, net.NumParams(), weightsHash(net))
		}
	}
	return out.String()
}

// TestNetworksGolden pins what the model builders allocate — names, shapes,
// initial weights, one train-mode forward and every gradient, bit for bit —
// against the file generated through the hand-stacked nn.New* builders
// before they were replaced by ModelSpec.Build: the recipe replay must
// consume the RNG in the same order and stack the same layers. The
// full-size lines are skipped (not compared) under -short.
func TestNetworksGolden(t *testing.T) {
	const path = "testdata/networks.golden"
	full := !testing.Short()
	got := networksGoldenDump(full)
	if *updateGolden {
		if !full {
			t.Fatal("-update needs the full-size lines: run without -short")
		}
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
	if !full {
		wantLines = wantLines[:len(wantLines)-5] // the four full-size lines and the trailing empty one
		gotLines = gotLines[:len(gotLines)-1]
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden has %d lines, the builders produced %d", len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d differs from golden\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
