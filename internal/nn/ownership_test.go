package nn

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// ownershipNet is a small network with a layer of every kind that owns
// activation slots: conv, BN, ReLU, max and average pooling, LRN, a
// residual block with a projection, a grouped conv, global pooling,
// flatten, linear and dropout with drop probability p.
func ownershipNet(p float32) *Network {
	r := rng.New(31)
	body := NewNetwork("body",
		NewConv("res.c1", r, 4, 4, 3, 1, 1, ConvOpts{NoBias: true}),
		NewBatchNorm("res.bn1", 4),
	)
	short := NewNetwork("short", NewConv("res.cs", r, 4, 4, 1, 1, 0, ConvOpts{NoBias: true}))
	return NewNetwork("owned",
		NewConv("c1", r, 3, 4, 3, 1, 1, ConvOpts{}),
		NewBatchNorm("bn1", 4),
		NewReLU("relu1"),
		NewLRN("lrn1"),
		NewMaxPool("pool1", 2, 2, 0),
		NewResidual("res", body, short),
		NewGroupedConv("g1", r, 4, 4, 3, 1, 1, 2, ConvOpts{}),
		NewAvgPool("avg1", 2, 2),
		NewFlatten(),
		NewLinear("fc1", r, 4*2*2, 6),
		NewDropout("drop1", r, p),
		NewLinear("fc2", r, 6, 3),
	)
}

// An eval result belongs to the caller: a later eval call and a later
// training step on the same network leave it as it was, whether the batch
// was one chunk or several.
func TestEvalResultOwnedByCaller(t *testing.T) {
	r := rng.New(32)
	net := ownershipNet(0.5)
	for _, n := range []int{3, 2*evalChunk + 3} {
		x := tensor.RandNormal(r, 1, n, 3, 8, 8)
		y := net.Forward(x, false)
		want := y.Clone()
		net.Forward(tensor.RandNormal(r, 1, n, 3, 8, 8), false)
		yt := net.Forward(tensor.RandNormal(r, 1, 4, 3, 8, 8), true)
		net.Backward(tensor.RandNormal(r, 1, yt.Shape...))
		net.Forward(x, false)
		bitsEqual(t, "eval result after later calls", y.Data, want.Data)
	}
}

// A chunked eval forward is a one-pass eval: each row run through the layers
// alone gives that row of the whole batch's result, bit for bit, and the
// result is [n, classes] for n on either side of a chunk boundary.
func TestEvalChunksMatchRows(t *testing.T) {
	r := rng.New(33)
	net := ownershipNet(0.5)
	net.Forward(tensor.RandNormal(r, 1, 6, 3, 8, 8), true)
	for _, n := range []int{1, evalChunk - 1, evalChunk, evalChunk + 1, 3*evalChunk + 5} {
		x := tensor.RandNormal(r, 1, n, 3, 8, 8)
		y := net.Forward(x, false)
		if y.Dims() != 2 || y.Shape[0] != n || y.Shape[1] != 3 {
			t.Fatalf("n=%d: eval result has shape %v, want [%d 3]", n, y.Shape, n)
		}
		for s := 0; s < n; s++ {
			row := tensor.FromSlice(x.Data[s*3*8*8:(s+1)*3*8*8], 1, 3, 8, 8)
			bitsEqual(t, "row of a chunked eval", y.Data[s*3:(s+1)*3], net.forward(row, false).Data)
		}
	}
}

// A layer's training output and its eval output are distinct memory, so an
// eval call never overwrites what a training Forward returned (and what its
// Backward reads): TestBatchNormEvalUsesRunningStats compares the two.
func TestTrainAndEvalOutputsDistinct(t *testing.T) {
	r := rng.New(34)
	net := ownershipNet(0.5)
	for i, l := range net.Layers {
		if _, ok := l.(*Flatten); ok {
			continue // a view of its input's storage
		}
		x := tensor.RandNormal(r, 1, 2, 3, 8, 8)
		for _, before := range net.Layers[:i] {
			x = before.Forward(x, false)
		}
		x = x.Clone()
		yTrain := l.Forward(x, true)
		trainBits := yTrain.Clone()
		yEval := l.Forward(x, false)
		if &yTrain.Data[0] == &yEval.Data[0] {
			t.Errorf("%s: training and eval outputs share storage", l.Name())
		}
		bitsEqual(t, l.Name()+" training output after an eval Forward", yTrain.Data, trainBits.Data)
	}
}

// A slot that has served other shapes gives what a fresh layer gives: the
// output, the input gradient and every parameter gradient of a step at
// batch 3 are bit-identical after a step at batch 5, so every pass that
// accumulates into a reused gradient (col2im, the pooling scatters) clears
// it first. Dropout is off: its mask stream would move with the extra step.
func TestWarmSlotsMatchFreshLayers(t *testing.T) {
	r := rng.New(35)
	warm, fresh := ownershipNet(0), ownershipNet(0)
	runStep(warm, tensor.RandNormal(r, 1, 5, 3, 8, 8))
	x := tensor.RandNormal(r, 1, 3, 3, 8, 8)
	y, dx := runStep(warm, x)
	wantY, wantDX := runStep(fresh, x)
	bitsEqual(t, "output", y.Data, wantY.Data)
	bitsEqual(t, "dx", dx.Data, wantDX.Data)
	wp, fp := warm.Params(), fresh.Params()
	for i := range wp {
		bitsEqual(t, "grad "+wp[i].Name, wp[i].G.Data, fp[i].G.Data)
	}
}
