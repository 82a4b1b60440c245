package nn

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// buildConvStack returns a small conv/pool stack with identically-seeded
// weights on every call — the reference construction for scratch-reuse
// bit-identity checks.
func buildConvStack(p tensor.Precision) *Network {
	r := rng.New(77)
	net := NewNetwork("scratch-test",
		NewConv("conv1", r, 3, 4, 3, 1, 1, ConvOpts{}),
		NewReLU("relu1"),
		NewMaxPool("pool1", 2, 2, 0),
		NewConv("conv2", r, 4, 8, 3, 2, 1, ConvOpts{}),
		NewReLU("relu2"),
	)
	if p == tensor.F16 {
		net.SetPrecision(p)
	}
	return net
}

func runStep(net *Network, x *tensor.Tensor) (y, dx *tensor.Tensor) {
	net.ZeroGrad()
	y = net.Forward(x, true)
	dy := tensor.New(y.Shape...)
	for i := range dy.Data {
		dy.Data[i] = float32(i%7) * 0.1
	}
	dx = net.Backward(dy)
	return y, dx
}

func bitsEqual(t *testing.T, label string, a, b []float32) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			t.Fatalf("%s: bit divergence at %d: %g vs %g", label, i, a[i], b[i])
		}
	}
}

// A layer whose scratch cache has served other resolutions must produce
// bit-identical outputs, input gradients, and weight gradients to a fresh
// layer that only ever saw the current resolution — at both precisions.
// This is the change-shape-safely contract of the shape-keyed cache.
func TestConvScratchShapeAlternation(t *testing.T) {
	shapes := [][2]int{{12, 12}, {24, 24}, {12, 12}, {24, 16}, {12, 12}, {24, 24}}
	for _, p := range []tensor.Precision{tensor.F32, tensor.F16} {
		r := rng.New(5)
		inputs := map[[2]int]*tensor.Tensor{}
		for _, hw := range shapes {
			if inputs[hw] == nil {
				inputs[hw] = tensor.RandNormal(r, 1, 2, 3, hw[0], hw[1])
			}
		}
		alternating := buildConvStack(p)
		for _, hw := range shapes {
			y, dx := runStep(alternating, inputs[hw])

			fresh := buildConvStack(p)
			wantY, wantDX := runStep(fresh, inputs[hw])

			bitsEqual(t, p.String()+" forward", y.Data, wantY.Data)
			bitsEqual(t, p.String()+" dx", dx.Data, wantDX.Data)
			ap, fp := alternating.Params(), fresh.Params()
			for i := range ap {
				bitsEqual(t, p.String()+" grad "+ap[i].Name, ap[i].G.Data, fp[i].G.Data)
			}
		}
	}
}

// The conv workspace grows to the largest extent it has served and is
// reused, without reallocating, by a smaller or revisited shape — the
// deterministic-reallocation contract. It holds for the batch's panel a
// training Forward keeps and for the block panel an eval Forward lowers
// into, and neither pass touches the other's buffer.
func TestConvScratchSlotReuse(t *testing.T) {
	r := rng.New(9)
	conv := NewConv("c", r, 3, 4, 3, 1, 1, ConvOpts{})
	a := tensor.RandNormal(r, 1, 2, 3, 12, 12)
	b := tensor.RandNormal(r, 1, 2, 3, 24, 24)
	for _, tc := range []struct {
		name       string
		train      bool
		buf, other *[]float32
		wantLen    func(x *tensor.Tensor) int
	}{
		{"kept panel", true, &conv.scratch.panel, &conv.scratch.col, func(x *tensor.Tensor) int {
			return 27 * x.Shape[0] * x.Shape[2] * x.Shape[3]
		}},
		{"eval block panel", false, &conv.scratch.col, &conv.scratch.panel, func(x *tensor.Tensor) int {
			l := x.Shape[2] * x.Shape[3]
			return 27 * blockSize(27, l, x.Shape[0]) * l
		}},
	} {
		otherCap := cap(*tc.other)
		first := func() *float32 { return &(*tc.buf)[:1][0] }
		conv.Forward(a, tc.train)
		if len(*tc.buf) != tc.wantLen(a) {
			t.Fatalf("%s: %d floats after a 12x12 batch, want %d", tc.name, len(*tc.buf), tc.wantLen(a))
		}
		small := first()
		conv.Forward(b, tc.train)
		if len(*tc.buf) != tc.wantLen(b) {
			t.Fatalf("%s: %d floats after a 24x24 batch, want %d", tc.name, len(*tc.buf), tc.wantLen(b))
		}
		large := first()
		if large == small {
			t.Fatalf("%s: a larger batch must grow the workspace", tc.name)
		}
		conv.Forward(a, tc.train)
		conv.Forward(b, tc.train)
		if first() != large {
			t.Fatalf("%s: revisited shapes must reuse the grown workspace", tc.name)
		}
		if cap(*tc.other) != otherCap {
			t.Fatalf("%s: the other pass's buffer changed from %d to %d floats", tc.name, otherCap, cap(*tc.other))
		}
	}
}
