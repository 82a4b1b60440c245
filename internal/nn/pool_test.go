package nn

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// maxPoolRef is MaxPool2D.Forward's scalar window loop as it stood before
// the windows were clamped and the 2×2 tree added, copied verbatim (the
// receiver's fields passed in, the plane loop serial): the oracle the
// layer's bits are held to.
func maxPoolRef(l *MaxPool2D, x *tensor.Tensor) (*tensor.Tensor, []int32) {
	g := window(l.name, x, l.KH, l.KW, l.StrideH, l.StrideW, l.PadH, l.PadW)
	n, c, h, w := x.Shape[0], g.InC, g.InH, g.InW
	outH, outW := g.OutH(), g.OutW()
	y := tensor.New(n, c, outH, outW)
	argmax := make([]int32, n*c*outH*outW)
	xd, yd := x.Data, y.Data
	planes := n * c
	for p := 0; p < planes; p++ {
		in := xd[p*h*w : (p+1)*h*w]
		outBase := p * outH * outW
		for oh := 0; oh < outH; oh++ {
			for ow := 0; ow < outW; ow++ {
				best := float32(math.Inf(-1))
				bestIdx := int32(-1)
				for kh := 0; kh < l.KH; kh++ {
					ih := oh*l.StrideH - l.PadH + kh
					if ih < 0 || ih >= h {
						continue
					}
					for kw := 0; kw < l.KW; kw++ {
						iw := ow*l.StrideW - l.PadW + kw
						if iw < 0 || iw >= w {
							continue
						}
						v := in[ih*w+iw]
						if v > best {
							best = v
							bestIdx = int32(p*h*w + ih*w + iw)
						}
					}
				}
				o := outBase + oh*outW + ow
				yd[o] = best
				argmax[o] = bestIdx
			}
		}
	}
	return y, argmax
}

// TestMaxPoolMatchesScalarOracle holds MaxPool2D to maxPoolRef bit for bit
// — y, argmax and Backward's dx, and y of an eval Forward — for windows
// 2/2/0, 2/2/1, 3/2/0, 3/2/1, 2/1/1 and 1/1/0 over small random shapes (odd
// sizes included, and rows up to 36 wide, so a 2×2/2 row runs the kernel's
// masked, whole-tile and overlapping-tile paths), on inputs where NaN, ±Inf,
// ±0 and exact ties replace a share of the values from none to all.
func TestMaxPoolMatchesScalarOracle(t *testing.T) {
	r := rng.New(41)
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	specials := []float32{nan, inf, -inf, 0, float32(math.Copysign(0, -1))}
	bits := math.Float32bits
	for _, win := range [][3]int{{2, 2, 0}, {2, 2, 1}, {3, 2, 0}, {3, 2, 1}, {2, 1, 1}, {1, 1, 0}} {
		k, stride, pad := win[0], win[1], win[2]
		for _, density := range []float32{0, 0.1, 0.3, 0.7, 1} {
			for trial := 0; trial < 6; trial++ {
				lo := max(1, k-2*pad)
				n, c := 1+r.Intn(2), 1+r.Intn(3)
				h, w := lo+r.Intn(8), lo+r.Intn(36)
				x := tensor.New(n, c, h, w)
				for i := range x.Data {
					// Few distinct values, so ties are common without planting.
					x.Data[i] = float32(r.Intn(7)-3) / 2
					if r.Float32() < density {
						if r.Intn(3) == 0 && i > 0 {
							x.Data[i] = x.Data[i-1]
						} else {
							x.Data[i] = specials[r.Intn(len(specials))]
						}
					}
				}
				name := fmt.Sprintf("%d/%d/%d density %v x %v", k, stride, pad, density, x.Shape)
				l := NewMaxPool("pool", k, stride, pad)
				wantY, wantArg := maxPoolRef(l, x)
				y := l.Forward(x, true)
				for i := range wantY.Data {
					if bits(y.Data[i]) != bits(wantY.Data[i]) || l.argmax[i] != wantArg[i] {
						t.Fatalf("%s: output %d = %v (argmax %d), oracle %v (argmax %d)",
							name, i, y.Data[i], l.argmax[i], wantY.Data[i], wantArg[i])
					}
				}
				dout := tensor.New(y.Shape...)
				for i := range dout.Data {
					dout.Data[i] = float32(r.Intn(9) - 4)
				}
				wantDx := tensor.New(x.Shape...)
				for i, v := range dout.Data {
					if idx := wantArg[i]; idx >= 0 {
						wantDx.Data[idx] += v
					}
				}
				dx := l.Backward(dout)
				for i := range wantDx.Data {
					if bits(dx.Data[i]) != bits(wantDx.Data[i]) {
						t.Fatalf("%s: dx[%d] = %v, oracle %v", name, i, dx.Data[i], wantDx.Data[i])
					}
				}
				yEval := l.Forward(x, false)
				for i := range wantY.Data {
					if bits(yEval.Data[i]) != bits(wantY.Data[i]) {
						t.Fatalf("%s: eval output %d = %v, oracle %v", name, i, yEval.Data[i], wantY.Data[i])
					}
				}
			}
		}
	}
}

// TestMaxPoolBackwardOverwritesWarmSlot: a Backward into a gradient slot
// that an earlier Backward filled writes every element, for windows in
// bounds and at the borders (padding, odd sizes that leave taps in no
// window), bit for bit what a fresh layer writes.
func TestMaxPoolBackwardOverwritesWarmSlot(t *testing.T) {
	r := rng.New(43)
	for _, win := range [][3]int{{2, 2, 0}, {2, 2, 1}, {3, 2, 1}} {
		for _, hw := range [][2]int{{8, 8}, {7, 9}, {5, 34}} {
			k, stride, pad := win[0], win[1], win[2]
			shape := []int{2, 3, hw[0], hw[1]}
			warm, fresh := NewMaxPool("pool", k, stride, pad), NewMaxPool("pool", k, stride, pad)
			y := warm.Forward(tensor.RandNormal(r, 1, shape...), true)
			warm.Backward(tensor.RandNormal(r, 1, y.Shape...))
			x, dout := tensor.RandNormal(r, 1, shape...), tensor.RandNormal(r, 1, y.Shape...)
			warm.Forward(x, true)
			fresh.Forward(x, true)
			got, want := warm.Backward(dout), fresh.Backward(dout)
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("%d/%d/%d %v: warm dx[%d] = %v, fresh %v", k, stride, pad, shape, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestBackwardAfterEvalForwardPanics: an eval Forward records nothing for
// Backward, so a Backward after one (or a second Backward after one
// training Forward) panics with the layer's name instead of reading stale
// state from an earlier step.
func TestBackwardAfterEvalForwardPanics(t *testing.T) {
	r := rng.New(42)
	for _, l := range []Layer{
		NewBatchNorm("bn7", 2), NewMaxPool("pool7", 2, 2, 0), NewReLU("relu7"),
		NewConv("conv7", r, 2, 3, 3, 1, 1, ConvOpts{}), NewGroupedConv("gconv7", r, 2, 4, 3, 1, 1, 2, ConvOpts{}),
	} {
		x := tensor.RandNormal(r, 1, 2, 2, 4, 4)
		dy := tensor.New(l.Forward(x, true).Shape...)
		for _, step := range []struct {
			what string
			prep func()
		}{
			{"after an eval Forward", func() { l.Forward(x, true); l.Forward(x, false) }},
			{"twice after one training Forward", func() { l.Forward(x, true); l.Backward(dy) }},
		} {
			step.prep()
			func() {
				defer func() {
					v := recover()
					if v == nil {
						t.Fatalf("%s: Backward %s did not panic", l.Name(), step.what)
					}
					if msg := fmt.Sprint(v); !strings.Contains(msg, l.Name()) {
						t.Fatalf("%s: Backward %s panicked with %q, which does not name the layer", l.Name(), step.what, msg)
					}
				}()
				l.Backward(dy)
			}()
		}
	}
}
