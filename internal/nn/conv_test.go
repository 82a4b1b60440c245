package nn

import (
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

func TestConvOutputShape(t *testing.T) {
	r := rng.New(1)
	conv := NewConv("c1", r, 3, 8, 3, 1, 1, ConvOpts{})
	x := tensor.RandNormal(r, 1, 2, 3, 8, 8)
	y := conv.Forward(x, true)
	want := []int{2, 8, 8, 8}
	for i, d := range want {
		if y.Shape[i] != d {
			t.Fatalf("output shape %v, want %v", y.Shape, want)
		}
	}
}

func TestConvStridedShape(t *testing.T) {
	r := rng.New(2)
	// ResNet conv1 geometry scaled down: 7x7 stride 2 pad 3.
	conv := NewConv("c1", r, 3, 4, 7, 2, 3, ConvOpts{NoBias: true})
	x := tensor.RandNormal(r, 1, 1, 3, 16, 16)
	y := conv.Forward(x, true)
	if y.Shape[2] != 8 || y.Shape[3] != 8 {
		t.Fatalf("strided output %v, want spatial 8x8", y.Shape)
	}
}

func TestConvBiasApplied(t *testing.T) {
	r := rng.New(3)
	conv := NewConv("c", r, 1, 2, 1, 1, 0, ConvOpts{})
	conv.Weight.W.Zero()
	conv.Bias.W.Data[0] = 1.5
	conv.Bias.W.Data[1] = -0.5
	x := tensor.RandNormal(r, 1, 1, 1, 2, 2)
	y := conv.Forward(x, true)
	for i := 0; i < 4; i++ {
		if y.Data[i] != 1.5 {
			t.Fatalf("channel 0 should be pure bias 1.5, got %v", y.Data[i])
		}
		if y.Data[4+i] != -0.5 {
			t.Fatalf("channel 1 should be pure bias -0.5, got %v", y.Data[4+i])
		}
	}
}

func TestConvGradients(t *testing.T) {
	r := rng.New(4)
	conv := NewConv("c", r, 2, 3, 3, 1, 1, ConvOpts{})
	x := tensor.RandNormal(r, 1, 2, 2, 5, 5)
	checkGradients(t, conv, x, true)
}

func TestConvGradientsStridedNoBias(t *testing.T) {
	r := rng.New(5)
	conv := NewConv("c", r, 3, 2, 3, 2, 1, ConvOpts{NoBias: true})
	x := tensor.RandNormal(r, 1, 2, 3, 7, 7)
	checkGradients(t, conv, x, true)
}

func TestConvGradientAccumulates(t *testing.T) {
	r := rng.New(6)
	conv := NewConv("c", r, 1, 1, 3, 1, 1, ConvOpts{})
	x := tensor.RandNormal(r, 1, 1, 1, 4, 4)
	y := conv.Forward(x, true)
	ones := tensor.Ones(y.Shape...)
	conv.Backward(ones)
	g1 := conv.Weight.G.Clone()
	conv.Forward(x, true)
	conv.Backward(ones)
	for i := range g1.Data {
		if got := conv.Weight.G.Data[i]; got != 2*g1.Data[i] {
			t.Fatalf("gradient did not accumulate: %v vs 2*%v", got, g1.Data[i])
		}
	}
}

func TestConvChannelMismatchPanics(t *testing.T) {
	defer expectPanic(t, "channel mismatch")
	r := rng.New(7)
	conv := NewConv("c", r, 3, 4, 3, 1, 1, ConvOpts{})
	conv.Forward(tensor.New(1, 2, 8, 8), true)
}

func expectPanic(t *testing.T, what string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("expected panic: %s", what)
	}
}

// TestWindowWiderThanInputRefused: on a 2×2 input a 3×3 window fits only
// with padding. Unpadded, conv, max-pool and avg-pool all refuse with a
// panic naming the layer and the input shape — at n=2 too, where avg-pool's
// planes split across par chunks — instead of reporting a 1×1 output read
// from outside the image or indexing past it.
func TestWindowWiderThanInputRefused(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{1, 2} {
		x := tensor.RandNormal(r, 1, n, 3, 2, 2)
		for _, l := range []Layer{
			NewConv("c", r, 3, 4, 3, 2, 0, ConvOpts{}),
			NewMaxPool("mp", 3, 2, 0),
			NewAvgPool("ap", 3, 2),
		} {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, l.Name()+": input [") || !strings.Contains(msg, "does not fit a 2x2 input") {
						t.Errorf("n=%d %s: recovered %q, want a refusal naming the layer and the input", n, l.Name(), msg)
					}
				}()
				l.Forward(x, true)
			}()
		}
	}
	// Padded to 4×4, the same conv fits once.
	if y := NewConv("c", r, 3, 4, 3, 2, 1, ConvOpts{}).Forward(tensor.RandNormal(r, 1, 1, 3, 2, 2), true); y.Shape[2] != 1 || y.Shape[3] != 1 {
		t.Fatalf("padded conv output %v, want 1x1", y.Shape)
	}
}
