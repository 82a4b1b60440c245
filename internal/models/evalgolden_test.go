package models

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// evalGoldenRows are the batch sizes of the eval forwards the golden pins:
// one row, and 15, 16, 17 and 53 rows, which straddle a 16-row boundary
// once, exactly, just after and three times over with a ragged tail.
var evalGoldenRows = []int{1, 15, 16, 17, 53}

// evalGoldenDump renders, for the five micro models at F32 and F16, the
// FNV-64a of the eval logits at each of evalGoldenRows, one after another on
// the same network. Three training forwards on distinct batches run first,
// so BN's running statistics are not their initial 0 and 1 and dropout's
// stream has moved.
func evalGoldenDump() string {
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
		for _, prec := range []tensor.Precision{tensor.F32, tensor.F16} {
			cfg := MicroConfig{Seed: 5}
			net := m.build(cfg)
			net.SetPrecision(prec)
			cfg = cfg.withDefaults()
			for i := uint64(0); i < 3; i++ {
				x := tensor.New(4, cfg.InC, cfg.InH, cfg.InW)
				goldenFill(x, 400+i, 1)
				net.Forward(x, true)
			}
			for _, n := range evalGoldenRows {
				x := tensor.New(n, cfg.InC, cfg.InH, cfg.InW)
				goldenFill(x, 500+uint64(n), 1)
				y := net.Forward(x, false)
				fmt.Fprintf(&out, "%s/%s n=%d y=%v %016x\n", m.name, prec, n, y.Shape, bitsHash(y))
			}
		}
	}
	return out.String()
}

// TestNetworksEvalGolden pins the eval-mode logits of every micro model, bit
// for bit, at batch sizes on both sides of a 16-row boundary: eval is
// per-sample in every layer (BN reads its running statistics, dropout is the
// identity, a GEMM row does not depend on its neighbours), so how a forward
// splits or buffers a batch must not move one bit of any row.
func TestNetworksEvalGolden(t *testing.T) {
	const path = "testdata/evalforward.golden"
	got := evalGoldenDump()
	if *updateGolden {
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
		t.Fatalf("golden has %d lines, the networks produced %d", len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d differs from golden\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
