package models

import (
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// bytesPerCall is the heap the calls of f allocate, per call, averaged over
// reps calls after two warm-up calls.
func bytesPerCall(reps int, f func()) uint64 {
	f()
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(reps)
}

// A warm micro-AlexNet-BN training step allocates no activation: every
// output, input gradient and cached x̂ lives in a slot its layer reuses.
// What a Forward+Backward still allocates is the closures its parallel
// loops capture (tensor.Gemm, Im2ColBlock, Col2ImBlock, gemmNTSamples,
// and BatchNorm's, ReLU's and MaxPool2D's par loops), a hundred-odd bytes
// each, one per loop a layer runs: per layer, and per block of samples in
// a conv. So the figure grows by a few hundred bytes for each block a
// larger batch adds (3.7 KB at batch 8, 7.0 KB at batch 32 when this test
// was written), while the activations it no longer allocates take about
// 0.8 and 3.1 MB. With GOMAXPROCS at 1 no loop starts a goroutine, so the
// figure does not depend on the host's core count. The step is held under
// one bound at both batch sizes, and so is an eval forward, which adds one
// set of loop closures per 16-row chunk and the result tensor
// its caller owns (n·classes floats).
func TestWarmStepAllocatesNoActivation(t *testing.T) {
	const trainStepBytes, evalBytes = 16 << 10, 16 << 10
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, n := range []int{8, 32} {
		net := NewMicroAlexNet(MicroConfig{Seed: 1})
		x := tensor.New(n, 3, 16, 16)
		goldenFill(x, 1, 1)
		dy := tensor.New(n, 8)
		goldenFill(dy, 2, 1.0/8)
		train := bytesPerCall(10, func() { net.Forward(x, true); net.Backward(dy) })
		eval := bytesPerCall(10, func() { net.Forward(x, false) })
		t.Logf("batch %d: %d bytes a training step, %d an eval forward", n, train, eval)
		if train > trainStepBytes {
			t.Errorf("batch %d: a warm training step allocates %d bytes, want <= %d", n, train, trainStepBytes)
		}
		if eval > evalBytes {
			t.Errorf("batch %d: a warm eval forward allocates %d bytes, want <= %d", n, eval, evalBytes)
		}
	}
}
