package nn

import (
	"fmt"
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

// TestConvBlocksMatchPerSample: Conv2D lowers blockSize samples at a time,
// and no block may leak into its neighbours. At batch sizes around the
// block boundary (1, nb−1, nb, nb+1, 2nb+3) a batched Forward (train and
// eval) and Backward must equal, bit for bit, the same layer run one sample
// at a time — outputs, input gradients and the weight and bias gradients
// accumulated over the batch — at both precisions, both strides and both
// paddings.
func TestConvBlocksMatchPerSample(t *testing.T) {
	const inC, outC, ksz, hw = 3, 4, 3, 12
	for _, prec := range []tensor.Precision{tensor.F32, tensor.F16} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1} {
				g := tensor.ConvGeom{InC: inC, InH: hw, InW: hw, KH: ksz, KW: ksz, StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}
				nb := blockSize(inC*ksz*ksz, g.OutH()*g.OutW(), 1<<20)
				for _, n := range []int{1, nb - 1, nb, nb + 1, 2*nb + 3} {
					if n < 1 {
						continue
					}
					label := fmt.Sprintf("%v stride=%d pad=%d nb=%d n=%d", prec, stride, pad, nb, n)
					batched := NewConv("c", rng.New(9), inC, outC, ksz, stride, pad, ConvOpts{})
					single := NewConv("c", rng.New(9), inC, outC, ksz, stride, pad, ConvOpts{})
					batched.SetPrecision(prec)
					single.SetPrecision(prec)
					r := rng.New(uint64(n))
					x := tensor.RandNormal(r, 1, n, inC, hw, hw)
					eval := batched.Forward(x, false)
					y := batched.Forward(x, true)
					dy := tensor.RandNormal(r, 1, y.Shape...)
					dx := batched.Backward(dy)
					bitsEqual(t, label+" eval vs train", eval.Data, y.Data)

					xLen, yLen := len(x.Data)/n, len(y.Data)/n
					for s := 0; s < n; s++ {
						xs := tensor.FromSlice(x.Data[s*xLen:(s+1)*xLen], 1, inC, hw, hw)
						ys := single.Forward(xs, true)
						dys := tensor.FromSlice(dy.Data[s*yLen:(s+1)*yLen], ys.Shape...)
						dxs := single.Backward(dys)
						bitsEqual(t, label+" y", y.Data[s*yLen:(s+1)*yLen], ys.Data)
						bitsEqual(t, label+" dx", dx.Data[s*xLen:(s+1)*xLen], dxs.Data)
					}
					bitsEqual(t, label+" dW", batched.Weight.G.Data, single.Weight.G.Data)
					bitsEqual(t, label+" db", batched.Bias.G.Data, single.Bias.G.Data)
				}
			}
		}
	}
}

// BenchmarkConv2D times one Forward+Backward of micro-AlexNet's two conv
// layers over a 32-image batch (conv1: 3→8 channels at 24×24, conv2: 8→16
// at 12×12, both 3×3 pad 1), at each precision.
func BenchmarkConv2D(b *testing.B) {
	for _, sh := range []struct {
		name          string
		inC, outC, hw int
	}{
		{"conv1", 3, 8, 24},
		{"conv2", 8, 16, 12},
	} {
		for _, prec := range []tensor.Precision{tensor.F32, tensor.F16} {
			b.Run(fmt.Sprintf("%s/%v", sh.name, prec), func(b *testing.B) {
				r := rng.New(1)
				conv := NewConv(sh.name, r, sh.inC, sh.outC, 3, 1, 1, ConvOpts{})
				conv.SetPrecision(prec)
				x := tensor.RandNormal(r, 1, 32, sh.inC, sh.hw, sh.hw)
				dy := tensor.RandNormal(r, 1, 32, sh.outC, sh.hw, sh.hw)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					conv.Forward(x, true)
					conv.Backward(dy)
				}
			})
		}
	}
}
