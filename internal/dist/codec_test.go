package dist_test

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// refOneBit and refQuantizer are the packed 1-bit quantizer the codec was
// first written over — a sign bit array plus two scales, encoded and then
// decoded — kept verbatim as the specification OneBitCodec.Transform must
// reproduce bit for bit.
type refOneBit struct {
	Bits     []uint64
	PosScale float32
	NegScale float32
	N        int
}

func (q *refOneBit) Bytes() int64 {
	return int64(len(q.Bits))*8 + 8 /* two float32 scales */ + 4 /* length */
}

type refQuantizer struct {
	residual []float32
}

func (z *refQuantizer) Encode(grad []float32) *refOneBit {
	if len(grad) != len(z.residual) {
		panic(fmt.Sprintf("compress: gradient has %d coords, quantizer built for %d", len(grad), len(z.residual)))
	}
	n := len(grad)
	q := &refOneBit{Bits: make([]uint64, (n+63)/64), N: n}
	// First pass: effective value and scale accumulation.
	var posSum, negSum float64
	var posCount, negCount int
	eff := make([]float32, n)
	for i, g := range grad {
		v := g + z.residual[i]
		eff[i] = v
		if v >= 0 {
			posSum += float64(v)
			posCount++
		} else {
			negSum += float64(-v)
			negCount++
		}
	}
	if posCount > 0 {
		q.PosScale = float32(posSum / float64(posCount))
	}
	if negCount > 0 {
		q.NegScale = float32(negSum / float64(negCount))
	}
	// Second pass: bits and residual update.
	for i, v := range eff {
		var recon float32
		if v >= 0 {
			q.Bits[i/64] |= 1 << (uint(i) % 64)
			recon = q.PosScale
		} else {
			recon = -q.NegScale
		}
		z.residual[i] = v - recon
	}
	return q
}

func (q *refOneBit) Decode(dst []float32) {
	if len(dst) != q.N {
		panic(fmt.Sprintf("compress: decode into %d coords, want %d", len(dst), q.N))
	}
	for i := range dst {
		if q.Bits[i/64]&(1<<(uint(i)%64)) != 0 {
			dst[i] = q.PosScale
		} else {
			dst[i] = -q.NegScale
		}
	}
}

// sameBits reports the first index where a and b differ in IEEE bits, any
// NaN matching any NaN, or -1.
func sameBits(a, b []float32) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if a[i] != a[i] && b[i] != b[i] {
			continue
		}
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// oneBitPayload draws n coordinates for step s: mostly normals, with ±0,
// ±Inf, NaN and subnormals sprinkled at fixed positions.
func oneBitPayload(r *rng.Rand, n, s int) []float32 {
	specials := []float32{
		0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.Float32frombits(1), math.Float32frombits(0x80000001), math.Float32frombits(0x007fffff),
	}
	g := make([]float32, n)
	for i := range g {
		g[i] = r.NormFloat32()
		if (i*7+s)%11 == 0 {
			g[i] = specials[(i+s)%len(specials)]
		}
	}
	return g
}

// TestOneBitCodecMatchesReference: three Transforms per slot, on payloads
// holding ±0, ±Inf, NaN and subnormals, leave the payload, the carried
// residual and the byte count exactly where the packed quantizer's
// Encode → Decode leaves them — including a slot whose residual was
// installed by RestoreSlot.
func TestOneBitCodecMatchesReference(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 1000} {
		r := rng.New(uint64(n))
		c := dist.NewOneBitCodec()
		fresh := &refQuantizer{residual: make([]float32, n)}
		restored := &refQuantizer{residual: oneBitPayload(r, n, 99)}
		c.RestoreSlot(1, restored.residual)
		for s := 0; s < 3; s++ {
			for slot, ref := range []*refQuantizer{fresh, restored} {
				g := oneBitPayload(r, n, s+3*slot)
				want := make([]float32, n)
				q := ref.Encode(g)
				q.Decode(want)
				bytes := c.Transform(slot, g)
				if i := sameBits(g, want); i >= 0 {
					t.Fatalf("n=%d slot %d step %d: payload coord %d = %v, reference %v", n, slot, s, i, g[i], want[i])
				}
				if i := sameBits(c.SlotResidual(slot), ref.residual); i >= 0 {
					t.Fatalf("n=%d slot %d step %d: residual coord %d differs from the reference", n, slot, s, i)
				}
				if bytes != q.Bytes() {
					t.Fatalf("n=%d slot %d step %d: %d wire bytes, reference %d", n, slot, s, bytes, q.Bytes())
				}
			}
		}
	}
}

func TestOneBitSignsAndScales(t *testing.T) {
	out := []float32{1, -2, 3, -4}
	dist.NewOneBitCodec().Transform(0, out)
	// Scales: mean(|pos|)=2, mean(|neg|)=3, carried by each coordinate's sign.
	if want := []float32{2, -3, 2, -3}; sameBits(out, want) >= 0 {
		t.Fatalf("decoded %v, want %v", out, want)
	}
}

func TestOneBitCompressionRatioNear32(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{1, 63, 64, 65, 10000} {
		g := make([]float32, n)
		for i := range g {
			g[i] = r.NormFloat32()
		}
		bytes := dist.NewOneBitCodec().Transform(0, g)
		if want := int64(8*((n+63)/64) + 12); bytes != want {
			t.Fatalf("n=%d: %d wire bytes, want 8·⌈n/64⌉+12 = %d", n, bytes, want)
		}
		if n == 10000 {
			if ratio := float64(4*n) / float64(bytes); ratio < 28 || ratio > 32.5 {
				t.Fatalf("compression ratio %v, want ~32", ratio)
			}
		}
	}
}

// Property: with error feedback, the transmitted reconstruction plus the
// residual equals the effective gradient exactly — no information is lost,
// only delayed.
func TestOneBitErrorFeedbackConservesGradient(t *testing.T) {
	f := func(seed uint64, nn8 uint8) bool {
		n := int(nn8%100) + 1
		r := rng.New(seed)
		g := make([]float32, n)
		for i := range g {
			g[i] = r.NormFloat32()
		}
		c := dist.NewOneBitCodec()
		recon := append([]float32(nil), g...)
		c.Transform(0, recon)
		residual := c.SlotResidual(0)
		// g (+ zero initial residual) == recon + residual'
		for i := range g {
			if math.Abs(float64(g[i]-(recon[i]+residual[i]))) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// appliedSmallCoord transforms the same gradient 50 times — one coordinate
// of 1, the rest 0.01 — and returns the summed decoded value of a small
// coordinate, whose true cumulative gradient is 0.5. feedback false zeroes
// the residual before each step: the no-feedback ablation.
func appliedSmallCoord(feedback bool) float64 {
	const n = 64
	c := dist.NewOneBitCodec()
	zeros := make([]float32, n)
	recon := make([]float32, n)
	var applied float64
	for step := 0; step < 50; step++ {
		for i := range recon {
			recon[i] = 0.01
		}
		recon[0] = 1 // one big coordinate dominates the positive scale
		if !feedback {
			c.RestoreSlot(0, zeros)
		}
		c.Transform(0, recon)
		applied += float64(recon[1])
	}
	return applied
}

func TestOneBitResidualAccumulatesOverSteps(t *testing.T) {
	// A constant tiny gradient below the quantization scale must still be
	// applied eventually thanks to error feedback: the residual builds up
	// until the sign flips transmit it. The transmitted sum must track the
	// true 0.5 (not be stuck at 50x the large scale or at 0).
	if applied := appliedSmallCoord(true); math.Abs(applied-0.5) > 0.3 {
		t.Fatalf("error feedback failed: applied %v, want ~0.5", applied)
	}
}

func TestOneBitWithoutErrorFeedbackBias(t *testing.T) {
	// Ablation: without error feedback the small coordinate is swamped by
	// the shared positive scale every step and the applied sum runs away.
	if applied := appliedSmallCoord(false); math.Abs(applied-0.5) < 0.3 {
		t.Fatalf("expected visible bias without error feedback, applied %v", applied)
	}
}

// TestOneBitTrainingConverges trains a small model with 1-bit compressed
// gradients and checks it reaches a loss close to exact SGD — the Seide et
// al. result, and the reason compression is a viable alternative lever on
// the paper's communication bottleneck.
func TestOneBitTrainingConverges(t *testing.T) {
	train := func(compressed bool) float64 {
		net := models.NewMLP(models.MicroConfig{Classes: 2, InC: 1, InH: 4, InW: 4, Width: 4, Seed: 1})
		r := rng.New(2)
		x := tensor.RandNormal(r, 1, 32, 1, 4, 4)
		labels := make([]int, 32)
		for i := range labels {
			labels[i] = i % 2
			x.Data[i*16] += float32(labels[i]) * 2
		}
		c := dist.NewOneBitCodec()
		flat := make([]float32, net.NumParams())
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
				c.Transform(0, flat)
				off = 0
				for _, p := range net.Params() {
					copy(p.G.Data, flat[off:off+p.Numel()])
					off += p.Numel()
				}
			}
			addScaledGrads(net.Params(), -0.05)
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

// TestOneBitSizeMismatchPanics: a payload whose length differs from the
// slot's residual — carried from an earlier step or installed by
// RestoreSlot — is a programming error.
func TestOneBitSizeMismatchPanics(t *testing.T) {
	for name, setup := range map[string]func(c *dist.OneBitCodec){
		"carried":  func(c *dist.OneBitCodec) { c.Transform(0, make([]float32, 4)) },
		"restored": func(c *dist.OneBitCodec) { c.RestoreSlot(0, make([]float32, 4)) },
	} {
		t.Run(name, func(t *testing.T) {
			c := dist.NewOneBitCodec()
			setup(c)
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			c.Transform(0, make([]float32, 5))
		})
	}
}

// inPlaceHalf is FP16Codec's wire applied as a payload transform: its
// Transform rounds every payload in place before the plain reduce reads it.
// The engine recognizes only FP16Codec itself as the rounding it applies on
// read, so an engine on inPlaceHalf is the in-place oracle.
type inPlaceHalf struct{}

func (inPlaceHalf) Name() string { return "fp16-in-place" }
func (inPlaceHalf) Transform(slot int, data []float32) int64 {
	return dist.FP16Codec{}.Transform(slot, data)
}

// TestFP16RoundOnReadMatchesInPlace: every reduce the engine runs under
// FP16Codec rounds its sources as it reads them, and gives the bits of
// rounding every payload in place first — for both Reduction policies, on
// the gradient path with overlapped buckets (reduced gradients, every step)
// and on the local-SGD path with full and intra-node averaging rounds
// (final weights) — and files the same counters.
func TestFP16RoundOnReadMatchesInPlace(t *testing.T) {
	x, labels, factory := testTask(64)
	hier := dist.NewHierarchy(2, 2)
	for _, red := range []dist.Reduction{dist.CanonicalF64, dist.PairwiseF32} {
		grads := func(codec dist.Codec) ([][]float32, dist.CommStats) {
			e := newEngine(dist.Config{Algo: dist.Ring, Reduction: red, Codec: codec, BucketElems: 64, Overlap: true}, 2, factory)
			defer e.Close()
			sgd := opt.NewSGD(e.Master().Params(), opt.SGDConfig{Momentum: 0.9})
			var out [][]float32
			for step := 0; step < 3; step++ {
				if _, err := e.ComputeGradient(x, labels); err != nil {
					t.Fatal(err)
				}
				out = append(out, flatGrad(e))
				sgd.Step(0.05)
				if err := e.BroadcastWeights(); err != nil {
					t.Fatal(err)
				}
			}
			return out, e.Stats()
		}
		got, gotStats := grads(dist.FP16Codec{})
		want, wantStats := grads(inPlaceHalf{})
		for step := range want {
			if i := firstBitDiff(got[step], want[step]); i >= 0 {
				t.Fatalf("%v gradient step %d: coord %d is %v, in-place rounding gives %v", red, step, i, got[step][i], want[step][i])
			}
		}
		if gotStats != wantStats {
			t.Fatalf("%v gradient counters %+v, in-place %+v", red, gotStats, wantStats)
		}

		local := func(codec dist.Codec) ([]float32, dist.CommStats) {
			e := localEngine(dist.Config{Topology: &hier, Reduction: red, Codec: codec, SyncEvery: 4, IntraSyncEvery: 2}, 4, factory)
			defer e.Close()
			for step := 0; step < 8; step++ {
				if _, err := e.LocalStep(x, labels, 0.05); err != nil {
					t.Fatal(err)
				}
			}
			return flatWeights(e.Master()), e.Stats()
		}
		gotW, gotStats := local(dist.FP16Codec{})
		wantW, wantStats := local(inPlaceHalf{})
		if i := firstBitDiff(gotW, wantW); i >= 0 {
			t.Fatalf("%v local SGD weight %d is %v, in-place rounding gives %v", red, i, gotW[i], wantW[i])
		}
		if gotStats != wantStats {
			t.Fatalf("%v local-SGD counters %+v, in-place %+v", red, gotStats, wantStats)
		}
	}
}

// firstBitDiff returns the first index where a and b differ bitwise, or -1.
func firstBitDiff(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}
