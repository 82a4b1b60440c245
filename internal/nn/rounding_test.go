package nn

import (
	"fmt"
	"testing"

	"repro/internal/kernel"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// rounded returns a copy of t rounded through binary16.
func rounded(t *tensor.Tensor) *tensor.Tensor {
	c := t.Clone()
	kernel.RoundHalf(c.Data)
	return c
}

func zeroGrads(l Layer) {
	for _, p := range l.Params() {
		p.G.Zero()
	}
}

// checkF16Definition holds an F16 layer to its definition: every output,
// input gradient and weight gradient equals, bit for bit, the F32 twin ref
// (same weights, rounded through binary16) run on rounded copies of x and
// dout; the bias gradient (bias, nil for none) sums the unrounded dout. The
// eval-mode forward is checked too.
func checkF16Definition(t *testing.T, label string, half, ref Layer, weight, refWeight, bias, refBias *Param, x, dout *tensor.Tensor) {
	t.Helper()
	bitsEqual(t, label+" eval y", half.Forward(x, false).Data, ref.Forward(rounded(x), false).Data)

	zeroGrads(half)
	y := half.Forward(x, true)
	dx := half.Backward(dout)
	zeroGrads(ref)
	bitsEqual(t, label+" y", y.Data, ref.Forward(rounded(x), true).Data)
	bitsEqual(t, label+" dx", dx.Data, ref.Backward(rounded(dout)).Data)
	bitsEqual(t, label+" dW", weight.G.Data, refWeight.G.Data)
	if bias == nil {
		return
	}
	zeroGrads(ref)
	ref.Forward(rounded(x), true)
	ref.Backward(dout)
	bitsEqual(t, label+" db", bias.G.Data, refBias.G.Data)
}

// TestF16ConvIsF32OnRoundedOperands: an F16 Conv2D is the F32 layer run on
// binary16-rounded x, W and dout, for a padded and a strided conv, batches
// of one sample, exactly one block and two blocks plus a ragged tail, and a
// change of input shape midway (the same two layers see every input in
// turn, so their reused workspaces are covered too).
func TestF16ConvIsF32OnRoundedOperands(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		inC, outC, k, str, pad int
		noBias                 bool
	}{
		{"pad1", 4, 5, 3, 1, 1, false},
		{"stride2", 4, 3, 3, 2, 1, true},
	} {
		build := func() *Conv2D {
			return NewConv(tc.name, rng.New(21), tc.inC, tc.outC, tc.k, tc.str, tc.pad, ConvOpts{NoBias: tc.noBias})
		}
		half, ref := build(), build()
		half.SetPrecision(tensor.F16)
		kernel.RoundHalf(ref.Weight.W.Data)
		var bias, refBias *Param
		if !tc.noBias {
			bias, refBias = half.Bias, ref.Bias
		}

		// nb is the block size of a large batch at 12x12.
		g := tensor.ConvGeom{InC: tc.inC, InH: 12, InW: 12, KH: tc.k, KW: tc.k, StrideH: tc.str, StrideW: tc.str, PadH: tc.pad, PadW: tc.pad}
		nb := blockSize(tc.inC*tc.k*tc.k, g.OutH()*g.OutW(), 1<<20)
		if nb < 2 {
			t.Fatalf("%s: block size %d leaves no multi-sample block to test", tc.name, nb)
		}
		r := rng.New(22)
		for _, s := range [][3]int{{1, 12, 12}, {nb, 12, 12}, {2*nb + 3, 12, 12}, {2*nb + 3, 8, 10}, {nb, 12, 12}} {
			x := tensor.RandNormal(r, 1, s[0], tc.inC, s[1], s[2])
			dout := tensor.RandNormal(r, 1, half.Forward(x, false).Shape...)
			checkF16Definition(t, fmt.Sprintf("%s n=%d %dx%d", tc.name, s[0], s[1], s[2]), half, ref, half.Weight, ref.Weight, bias, refBias, x, dout)
		}
	}
}

// TestF16LinearIsF32OnRoundedOperands: the same definition for Linear,
// across batch sizes in turn.
func TestF16LinearIsF32OnRoundedOperands(t *testing.T) {
	half, ref := NewLinear("fc", rng.New(23), 20, 7), NewLinear("fc", rng.New(23), 20, 7)
	half.SetPrecision(tensor.F16)
	kernel.RoundHalf(ref.Weight.W.Data)
	r := rng.New(24)
	for _, n := range []int{1, 5, 13, 2} {
		x := tensor.RandNormal(r, 1, n, 20)
		dout := tensor.RandNormal(r, 1, n, 7)
		checkF16Definition(t, fmt.Sprintf("fc n=%d", n), half, ref, half.Weight, ref.Weight, half.Bias, ref.Bias, x, dout)
	}
}

// watch is an identity layer that remembers the tensors flowing through it
// and their bits at that moment, so a test can check after the whole pass
// that no later layer wrote them.
type watch struct {
	seen  []*tensor.Tensor
	saved []*tensor.Tensor
}

func (w *watch) note(t *tensor.Tensor) *tensor.Tensor {
	w.seen = append(w.seen, t)
	w.saved = append(w.saved, t.Clone())
	return t
}

func (w *watch) Name() string                                        { return "watch" }
func (w *watch) Params() []*Param                                    { return nil }
func (w *watch) Forward(x *tensor.Tensor, train bool) *tensor.Tensor { return w.note(x) }
func (w *watch) Backward(dout *tensor.Tensor) *tensor.Tensor         { return w.note(dout) }

// TestF16LeavesOperandsUnwritten: the F16 layers round only their own
// scratch. After Forward and Backward the caller's input, the incoming
// gradient and every master weight keep their bits — including inside a
// Residual block, whose input feeds both branches and whose summed gradient
// each branch receives in turn (the watch layers capture both at the body's
// edges).
func TestF16LeavesOperandsUnwritten(t *testing.T) {
	r := rng.New(25)
	in, out := &watch{}, &watch{}
	net := NewNetwork("alias",
		NewResidual("res",
			NewNetwork("body", in, NewConv("c1", r, 2, 4, 3, 1, 1, ConvOpts{}), out),
			NewNetwork("short", NewConv("cs", r, 2, 4, 1, 1, 0, ConvOpts{NoBias: true}))),
		NewFlatten(),
		NewLinear("fc", r, 4*6*6, 5),
	)
	net.SetPrecision(tensor.F16)
	params := net.Params()
	weights := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		weights[i] = p.W.Clone()
	}
	x := tensor.RandNormal(r, 1, 3, 2, 6, 6)
	xBits := x.Clone()
	for _, train := range []bool{true, false} {
		y := net.Forward(x, train)
		if !train {
			continue
		}
		dout := tensor.RandNormal(r, 1, y.Shape...)
		doutBits := dout.Clone()
		net.Backward(dout)
		bitsEqual(t, "dout", dout.Data, doutBits.Data)
	}
	bitsEqual(t, "x", x.Data, xBits.Data)
	for i, p := range params {
		bitsEqual(t, p.Name, p.W.Data, weights[i].Data)
	}
	for _, w := range []*watch{in, out} {
		if len(w.seen) == 0 {
			t.Fatal("a watch layer saw no tensor")
		}
		for i := range w.seen {
			bitsEqual(t, fmt.Sprintf("residual body edge, tensor %d", i), w.seen[i].Data, w.saved[i].Data)
		}
	}
}
