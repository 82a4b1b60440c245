package compress

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func TestEncodeDecodeSigns(t *testing.T) {
	z := NewQuantizer(4)
	q := z.Encode([]float32{1, -2, 3, -4})
	out := make([]float32, 4)
	q.Decode(out)
	if out[0] <= 0 || out[2] <= 0 {
		t.Fatal("positive coordinates must decode positive")
	}
	if out[1] >= 0 || out[3] >= 0 {
		t.Fatal("negative coordinates must decode negative")
	}
	// Scales: mean(|pos|)=2, mean(|neg|)=3.
	if q.PosScale != 2 || q.NegScale != 3 {
		t.Fatalf("scales = %v/%v, want 2/3", q.PosScale, q.NegScale)
	}
}

func TestCompressionRatioNear32(t *testing.T) {
	z := NewQuantizer(10000)
	r := rng.New(1)
	g := make([]float32, 10000)
	for i := range g {
		g[i] = r.NormFloat32()
	}
	q := z.Encode(g)
	if ratio := float64(4*q.N) / float64(q.Bytes()); ratio < 28 || ratio > 32.5 {
		t.Fatalf("compression ratio %v, want ~32", ratio)
	}
}

// Property: with error feedback, the transmitted reconstruction plus the
// residual equals the effective gradient exactly — no information is lost,
// only delayed.
func TestErrorFeedbackConservesGradient(t *testing.T) {
	f := func(seed uint64, nn8 uint8) bool {
		n := int(nn8%100) + 1
		r := rng.New(seed)
		g := make([]float32, n)
		for i := range g {
			g[i] = r.NormFloat32()
		}
		z := NewQuantizer(n)
		q := z.Encode(g)
		recon := make([]float32, n)
		q.Decode(recon)
		// g (+ zero initial residual) == recon + residual'
		for i := range g {
			if math.Abs(float64(g[i]-(recon[i]+z.residual[i]))) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestResidualAccumulatesOverSteps(t *testing.T) {
	// A constant tiny gradient below the quantization scale must still be
	// applied eventually thanks to error feedback: the residual builds up
	// until the sign flips transmit it.
	const n = 64
	z := NewQuantizer(n)
	g := make([]float32, n)
	for i := range g {
		g[i] = 0.01
	}
	g[0] = 1 // one big coordinate dominates the positive scale
	var applied float64
	recon := make([]float32, n)
	for step := 0; step < 50; step++ {
		q := z.Encode(g)
		q.Decode(recon)
		applied += float64(recon[1])
	}
	// Coordinate 1's true cumulative gradient is 0.5; the transmitted sum
	// must track it (not be stuck at 50x the large scale or at 0).
	if math.Abs(applied-0.5) > 0.3 {
		t.Fatalf("error feedback failed: applied %v, want ~0.5", applied)
	}
}

func TestWithoutErrorFeedbackBias(t *testing.T) {
	// Ablation: without error feedback the small coordinate is swamped by
	// the shared positive scale every step and the applied sum runs away.
	// Zeroing the residual before each Encode is the no-feedback quantizer.
	const n = 64
	z := NewQuantizer(n)
	zeros := make([]float32, n)
	g := make([]float32, n)
	for i := range g {
		g[i] = 0.01
	}
	g[0] = 1
	var applied float64
	recon := make([]float32, n)
	for step := 0; step < 50; step++ {
		z.SetResidual(zeros)
		q := z.Encode(g)
		q.Decode(recon)
		applied += float64(recon[1])
	}
	if math.Abs(applied-0.5) < 0.3 {
		t.Fatalf("expected visible bias without error feedback, applied %v", applied)
	}
}

// TestTrainingWithCompressionConverges trains a small model with 1-bit
// compressed gradients and checks it reaches a loss close to exact SGD —
// the Seide et al. result, and the reason compression is a viable
// alternative lever on the paper's communication bottleneck.
func TestTrainingWithCompressionConverges(t *testing.T) {
	mk := func() (*nn.Network, *tensor.Tensor, []int) {
		net := models.NewMLP(models.MicroConfig{Classes: 2, InC: 1, InH: 4, InW: 4, Width: 4, Seed: 1})
		r := rng.New(2)
		x := tensor.RandNormal(r, 1, 32, 1, 4, 4)
		labels := make([]int, 32)
		for i := range labels {
			labels[i] = i % 2
			x.Data[i*16] += float32(labels[i]) * 2
		}
		return net, x, labels
	}

	train := func(compressed bool) float64 {
		net, x, labels := mk()
		nParams := net.NumParams()
		z := NewQuantizer(nParams)
		flat := make([]float32, nParams)
		recon := make([]float32, nParams)
		var loss nn.SoftmaxCrossEntropy
		var final float64
		for step := 0; step < 120; step++ {
			logits := net.Forward(x, true)
			final = loss.Forward(logits, labels)
			net.ZeroGrad()
			net.Backward(loss.Backward())
			if compressed {
				off := 0
				for _, p := range net.Params() {
					copy(flat[off:], p.G.Data)
					off += p.Numel()
				}
				q := z.Encode(flat)
				q.Decode(recon)
				off = 0
				for _, p := range net.Params() {
					copy(p.G.Data, recon[off:off+p.Numel()])
					off += p.Numel()
				}
			}
			for _, p := range net.Params() {
				p.W.Axpy(-0.05, p.G)
			}
		}
		return final
	}

	exact := train(false)
	comp := train(true)
	t.Logf("exact loss %v, 1-bit loss %v", exact, comp)
	if exact > 0.2 {
		t.Fatalf("exact baseline failed to converge: %v", exact)
	}
	if comp > exact+0.3 {
		t.Fatalf("compressed training too far behind exact: %v vs %v", comp, exact)
	}
}

func TestSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewQuantizer(4).Encode(make([]float32, 5))
}
