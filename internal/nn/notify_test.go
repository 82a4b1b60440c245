package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// notifyNet builds a three-linear-layer network for the notification tests.
func notifyNet() *Network {
	r := rng.New(3)
	return NewNetwork("notify",
		NewFlatten(),
		NewLinear("fc1", r, 12, 8),
		NewReLU("relu"),
		NewLinear("fc2", r, 8, 8),
		NewLinear("fc3", r, 8, 4),
	)
}

// TestGradNotifyOrderAndFinality: the callback must fire exactly once per
// parameter, in reverse Params() order (the order backward finalizes them),
// and at notification time the parameter's gradient must already hold its
// final value for this Backward call.
func TestGradNotifyOrderAndFinality(t *testing.T) {
	net := notifyNet()
	params := net.Params()
	x := tensor.New(2, 3, 2, 2)
	for i := range x.Data {
		x.Data[i] = float32(i%5) * 0.1
	}
	loss := &SoftmaxCrossEntropy{}

	var order []int
	snapshots := make([][]float32, len(params))
	net.SetGradNotify(func(p int) {
		order = append(order, p)
		snapshots[p] = append([]float32(nil), params[p].G.Data...)
	})
	net.ZeroGrad()
	lv := loss.Forward(net.Forward(x, true), []int{1, 3})
	if lv <= 0 {
		t.Fatalf("degenerate loss %v", lv)
	}
	net.Backward(loss.Backward())

	if len(order) != len(params) {
		t.Fatalf("notified %d params, network has %d", len(order), len(params))
	}
	for i, p := range order {
		if want := len(params) - 1 - i; p != want {
			t.Fatalf("notification %d was param %d, want %d (reverse order)", i, p, want)
		}
	}
	for p := range params {
		for i, g := range params[p].G.Data {
			if snapshots[p][i] != g {
				t.Fatalf("param %d grad coord %d changed after its notification: %v -> %v", p, i, snapshots[p][i], g)
			}
		}
	}
}

// TestGradNotifyUnregister: a nil callback restores the plain backward, and
// gradients are unaffected by notification either way.
func TestGradNotifyUnregister(t *testing.T) {
	x := tensor.New(2, 3, 2, 2)
	for i := range x.Data {
		x.Data[i] = float32(i%7) * 0.05
	}
	loss := &SoftmaxCrossEntropy{}
	grad := func(withNotify bool) []float32 {
		net := notifyNet()
		if withNotify {
			net.SetGradNotify(func(int) {})
		}
		net.ZeroGrad()
		loss.Forward(net.Forward(x, true), []int{0, 2})
		net.Backward(loss.Backward())
		var out []float32
		for _, p := range net.Params() {
			out = append(out, p.G.Data...)
		}
		return out
	}
	plain := grad(false)
	notified := grad(true)
	for i := range plain {
		if plain[i] != notified[i] {
			t.Fatalf("notification changed grad coord %d", i)
		}
	}

	net := notifyNet()
	fired := false
	net.SetGradNotify(func(int) { fired = true })
	net.SetGradNotify(nil)
	net.ZeroGrad()
	loss.Forward(net.Forward(x, true), []int{0, 2})
	net.Backward(loss.Backward())
	if fired {
		t.Fatal("unregistered callback still fired")
	}
}

// TestBackwardParamsMatchesBackward: BackwardParams leaves every parameter
// gradient bit-identical to Backward's and fires the same notifications in
// the same order, for a Linear and a Conv2D first layer (which skip their
// input gradient) and a first layer without that shortcut, at F32 and F16.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	builds := map[string]func() (*Network, *tensor.Tensor){
		"linear-first": func() (*Network, *tensor.Tensor) {
			r := rng.New(4)
			net := NewNetwork("lin", NewLinear("fc1", r, 12, 8), NewReLU("relu"), NewLinear("fc2", r, 8, 4))
			x := tensor.New(3, 12)
			x.FillNormal(rng.New(5), 0, 1)
			return net, x
		},
		"conv-first": func() (*Network, *tensor.Tensor) {
			r := rng.New(6)
			net := NewNetwork("conv", NewConv("conv1", r, 2, 3, 3, 1, 1, ConvOpts{}), NewReLU("relu"),
				NewFlatten(), NewLinear("fc", r, 3*5*5, 4))
			x := tensor.New(3, 2, 5, 5)
			x.FillNormal(rng.New(7), 0, 1)
			return net, x
		},
		"flatten-first": func() (*Network, *tensor.Tensor) {
			net := notifyNet()
			x := tensor.New(3, 3, 2, 2)
			x.FillNormal(rng.New(8), 0, 1)
			return net, x
		},
	}
	for name, build := range builds {
		for _, prec := range []tensor.Precision{tensor.F32, tensor.F16} {
			run := func(paramsOnly bool) ([][]float32, []int) {
				net, x := build()
				net.SetPrecision(prec)
				var order []int
				net.SetGradNotify(func(p int) { order = append(order, p) })
				loss := &SoftmaxCrossEntropy{}
				loss.Forward(net.Forward(x, true), []int{0, 3, 1})
				if paramsOnly {
					net.BackwardParams(loss.Backward())
				} else {
					net.Backward(loss.Backward())
				}
				var grads [][]float32
				for _, p := range net.Params() {
					grads = append(grads, p.G.Data)
				}
				return grads, order
			}
			want, wantOrder := run(false)
			got, gotOrder := run(true)
			if fmt.Sprint(gotOrder) != fmt.Sprint(wantOrder) {
				t.Fatalf("%s %v: notifications %v, Backward's %v", name, prec, gotOrder, wantOrder)
			}
			for p := range want {
				for i := range want[p] {
					if math.Float32bits(got[p][i]) != math.Float32bits(want[p][i]) {
						t.Fatalf("%s %v: param %d coord %d is %v, Backward's %v", name, prec, p, i, got[p][i], want[p][i])
					}
				}
			}
		}
	}
}
