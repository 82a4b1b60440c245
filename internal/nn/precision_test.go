package nn

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// precNet builds a small network touching every PrecisionLayer kind (plain
// conv, grouped conv, linear) plus f32-only layers in between.
func precNet(seed uint64) *Network {
	r := rng.New(seed)
	return NewNetwork("prec",
		NewConv("c1", r, 2, 4, 3, 1, 1, ConvOpts{}),
		NewReLU("r1"),
		NewGroupedConv("g1", r, 4, 4, 3, 1, 1, 2, ConvOpts{}),
		NewReLU("r2"),
		NewFlatten(),
		NewLinear("fc", r, 4*6*6, 5),
	)
}

func precRun(net *Network, seed uint64) (y, dx *tensor.Tensor) {
	r := rng.New(seed)
	x := tensor.RandNormal(r, 1, 3, 2, 6, 6)
	y = net.Forward(x, true)
	dout := tensor.RandNormal(r, 1, y.Shape...)
	net.ZeroGrad()
	dx = net.Backward(dout)
	return y, dx
}

// TestF16CloseToF32: the F16 path stays within half-precision rounding
// tolerance of the F32 path for outputs, input gradients and parameter
// gradients — accuracy parity at layer granularity.
func TestF16CloseToF32(t *testing.T) {
	full := precNet(3)
	half := precNet(3)
	half.SetPrecision(tensor.F16)
	yf, dxf := precRun(full, 4)
	yh, dxh := precRun(half, 4)

	closeTo := func(label string, a, b *tensor.Tensor) {
		t.Helper()
		var scale float64
		for _, v := range b.Data {
			if m := math.Abs(float64(v)); m > scale {
				scale = m
			}
		}
		for i := range a.Data {
			if diff := math.Abs(float64(a.Data[i] - b.Data[i])); diff > 0.02*(scale+1e-6) {
				t.Fatalf("%s: coord %d: f16 %v vs f32 %v (scale %v)", label, i, a.Data[i], b.Data[i], scale)
			}
		}
	}
	closeTo("output", yh, yf)
	closeTo("dx", dxh, dxf)
	pf, ph := full.Params(), half.Params()
	for i := range pf {
		closeTo("grad "+pf[i].Name, ph[i].G, pf[i].G)
	}
}

// TestF16DiffersFromF32 is the negative control: the F16 path must actually
// change the numbers (a bit-identical result would mean the precision switch
// is dead code).
func TestF16DiffersFromF32(t *testing.T) {
	full := precNet(5)
	half := precNet(5)
	half.SetPrecision(tensor.F16)
	yf, _ := precRun(full, 6)
	yh, _ := precRun(half, 6)
	for i := range yf.Data {
		if math.Float32bits(yf.Data[i]) != math.Float32bits(yh.Data[i]) {
			return
		}
	}
	t.Fatal("F16 forward is bit-identical to F32 — precision path not engaged")
}

// TestF16Deterministic: two independent F16 replicas produce bit-identical
// outputs and gradients — the repo's decomposition-invariance contract holds
// through the packed kernels.
func TestF16Deterministic(t *testing.T) {
	a := precNet(7)
	b := precNet(7)
	a.SetPrecision(tensor.F16)
	b.SetPrecision(tensor.F16)
	ya, dxa := precRun(a, 8)
	yb, dxb := precRun(b, 8)
	bitsEq := func(label string, u, v *tensor.Tensor) {
		t.Helper()
		for i := range u.Data {
			if math.Float32bits(u.Data[i]) != math.Float32bits(v.Data[i]) {
				t.Fatalf("%s: coord %d: %v vs %v", label, i, u.Data[i], v.Data[i])
			}
		}
	}
	bitsEq("output", ya, yb)
	bitsEq("dx", dxa, dxb)
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		bitsEq("grad "+pa[i].Name, pa[i].G, pb[i].G)
	}
}

// resNet builds a network whose only convolutions sit inside a residual
// block — body and projection shortcut — one level below the layers
// Network.SetPrecision walks.
func resNet(seed uint64) (net *Network, bodyConv, shortConv *Conv2D) {
	r := rng.New(seed)
	bodyConv = NewConv("c1", r, 2, 4, 3, 2, 1, ConvOpts{NoBias: true})
	shortConv = NewConv("cs", r, 2, 4, 1, 2, 0, ConvOpts{NoBias: true})
	block := NewResidual("res",
		NewNetwork("body", bodyConv, NewBatchNorm("bn1", 4)),
		NewNetwork("short", shortConv, NewBatchNorm("bns", 4)))
	return NewNetwork("resnet", block, NewFlatten(), NewLinear("fc", r, 4*3*3, 5)), bodyConv, shortConv
}

// TestResidualForwardsPrecision: SetPrecision on the network reaches the
// convolutions inside a residual block's body and shortcut.
func TestResidualForwardsPrecision(t *testing.T) {
	net, bodyConv, shortConv := resNet(9)
	net.SetPrecision(tensor.F16)
	if bodyConv.precision != tensor.F16 || shortConv.precision != tensor.F16 {
		t.Fatalf("after net.SetPrecision(F16): body conv %v, shortcut conv %v", bodyConv.precision, shortConv.precision)
	}
	net.SetPrecision(tensor.F32)
	if bodyConv.precision != tensor.F32 || shortConv.precision != tensor.F32 {
		t.Fatalf("after net.SetPrecision(F32): body conv %v, shortcut conv %v", bodyConv.precision, shortConv.precision)
	}
}

// TestResidualF16DiffersFromF32 is the negative control for the block: with
// the final Linear held at F32 on both sides, an F16 residual block must
// still change the forward's bits — otherwise its convolutions ran in f32.
func TestResidualF16DiffersFromF32(t *testing.T) {
	full, _, _ := resNet(10)
	half, _, _ := resNet(10)
	half.SetPrecision(tensor.F16)
	half.Layers[2].(*Linear).SetPrecision(tensor.F32)
	x := tensor.RandNormal(rng.New(11), 1, 3, 2, 6, 6)
	yf, yh := full.Forward(x, true), half.Forward(x, true)
	for i := range yf.Data {
		if math.Float32bits(yf.Data[i]) != math.Float32bits(yh.Data[i]) {
			return
		}
	}
	t.Fatal("F16 residual forward is bit-identical to F32 — the block's convolutions ignored the precision")
}
