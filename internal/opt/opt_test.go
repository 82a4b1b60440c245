package opt

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/nn"
	"repro/internal/rng"
)

// flat is a constant schedule for exercising Warmup's hand-over.
type flat float64

func (f flat) LR(step, totalSteps int) float64 { return float64(f) }
func (f flat) String() string                  { return "flat" }

func TestPolySchedule(t *testing.T) {
	// The paper's poly policy with power 2: starts at base, ends at 0.
	s := Poly{Base: 0.4, Power: 2}
	if got := s.LR(0, 100); got != 0.4 {
		t.Fatalf("poly start = %v, want 0.4", got)
	}
	if got := s.LR(50, 100); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("poly midpoint = %v, want 0.1 (quarter of base)", got)
	}
	if got := s.LR(100, 100); got != 0 {
		t.Fatalf("poly end = %v, want 0", got)
	}
}

func TestPolyMonotoneDecreasing(t *testing.T) {
	s := Poly{Base: 1, Power: 2}
	prev := math.Inf(1)
	for step := 0; step <= 200; step++ {
		v := s.LR(step, 200)
		if v > prev {
			t.Fatalf("poly increased at step %d: %v > %v", step, v, prev)
		}
		prev = v
	}
}

func TestWarmupRampsToInner(t *testing.T) {
	w := Warmup{Inner: flat(1), WarmupSteps: 10}
	if got := w.LR(0, 100); got > 0.2 {
		t.Fatalf("warmup step 0 = %v, want small", got)
	}
	for step := 1; step < 10; step++ {
		if w.LR(step, 100) < w.LR(step-1, 100) {
			t.Fatal("warmup must ramp monotonically")
		}
	}
	if got := w.LR(10, 100); got != 1.0 {
		t.Fatalf("post-warmup = %v, want inner rate 1.0", got)
	}
}

func TestWarmupWithPoly(t *testing.T) {
	// Table 7's recipe: warmup for W epochs then poly(power=2) decay.
	sched := Warmup{Inner: Poly{Base: 10, Power: 2}, WarmupSteps: 50}
	peak := 0.0
	peakStep := 0
	for step := 0; step < 1000; step++ {
		v := sched.LR(step, 1000)
		if v > peak {
			peak, peakStep = v, step
		}
	}
	if peakStep < 40 || peakStep > 60 {
		t.Fatalf("peak LR at step %d, want near end of warmup (50)", peakStep)
	}
	if peak > 10 {
		t.Fatalf("peak %v exceeds base rate", peak)
	}
}

func TestLinearScalingRule(t *testing.T) {
	// Krizhevsky's rule: B 512→4096 is 8x, so LR 0.02→0.16 (Table 5 text).
	if got := LinearScalingRule(0.02, 512, 4096); math.Abs(got-0.16) > 1e-12 {
		t.Fatalf("linear scaling = %v, want 0.16", got)
	}
}

func TestScheduleStrings(t *testing.T) {
	for _, s := range []Schedule{Poly{Base: 1, Power: 2}, Warmup{Inner: Poly{Base: 1}, WarmupSteps: 5}} {
		if s.String() == "" {
			t.Fatalf("%T has empty String()", s)
		}
	}
}

// paperLARS is the paper's LARS hyperparameters.
var paperLARS = LARSConfig{Momentum: 0.9, WeightDecay: 0.0005, Trust: 0.001}

func makeParam(t *testing.T, seed uint64, n int) *nn.Param {
	t.Helper()
	p := nn.NewParam("w", n)
	r := rng.New(seed)
	p.W.FillNormal(r, 0, 1)
	p.G.FillNormal(r, 0, 0.1)
	return p
}

func TestSGDStepDirection(t *testing.T) {
	p := nn.NewParam("w", 2)
	p.W.Data[0], p.W.Data[1] = 1, -1
	p.G.Data[0], p.G.Data[1] = 0.5, -0.5
	s := NewSGD([]*nn.Param{p}, SGDConfig{Momentum: 0, WeightDecay: 0})
	s.Step(0.1)
	if math.Abs(float64(p.W.Data[0])-0.95) > 1e-6 || math.Abs(float64(p.W.Data[1])+0.95) > 1e-6 {
		t.Fatalf("SGD step: got %v", p.W.Data)
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	p := nn.NewParam("w", 1)
	p.W.Data[0] = 0
	s := NewSGD([]*nn.Param{p}, SGDConfig{Momentum: 0.9})
	// Constant gradient 1, lr 1: velocity approaches 1/(1-0.9) = 10.
	for i := 0; i < 200; i++ {
		p.G.Data[0] = 1
		s.Step(1)
	}
	v := s.Velocity(0).Data[0]
	if math.Abs(float64(v)-10) > 0.1 {
		t.Fatalf("terminal velocity = %v, want ~10", v)
	}
}

func TestSGDWeightDecayShrinksWeights(t *testing.T) {
	p := nn.NewParam("w", 1)
	p.W.Data[0] = 1
	s := NewSGD([]*nn.Param{p}, SGDConfig{WeightDecay: 0.1})
	p.G.Data[0] = 0 // no data gradient: only decay acts
	s.Step(0.5)
	want := 1 - 0.5*0.1
	if math.Abs(float64(p.W.Data[0])-want) > 1e-6 {
		t.Fatalf("decayed weight = %v, want %v", p.W.Data[0], want)
	}
}

func TestSGDNoDecayRespected(t *testing.T) {
	p := nn.NewParam("b", 1)
	p.NoDecay = true
	p.W.Data[0] = 1
	s := NewSGD([]*nn.Param{p}, SGDConfig{WeightDecay: 0.1})
	p.G.Data[0] = 0
	s.Step(0.5)
	if p.W.Data[0] != 1 {
		t.Fatalf("NoDecay param changed: %v", p.W.Data[0])
	}
}

func TestLARSTrustRatio(t *testing.T) {
	p := makeParam(t, 1, 1000)
	cfg := paperLARS
	cfg.Momentum = 0
	l := NewLARS([]*nn.Param{p}, cfg)
	wN, gN := p.W.Norm2(), p.G.Norm2()
	l.Step(1)
	want := cfg.Trust * wN / (gN + cfg.WeightDecay*wN + eps)
	got := l.TrustRatios()[0]
	if math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("trust ratio = %v, want %v", got, want)
	}
}

// TestLARSGradientScaleInvariance checks LARS's defining property: with no
// weight decay, rescaling the gradient by any positive constant leaves the
// update unchanged — the local rate normalizes ‖∇w‖ away. This is exactly
// why LARS tolerates the huge effective rates of 32K-batch training.
func TestLARSGradientScaleInvariance(t *testing.T) {
	f := func(seed uint64, scaleBits uint8) bool {
		scale := 1 + float64(scaleBits)/8 // [1, ~33)
		mk := func() *nn.Param {
			p := nn.NewParam("w", 64)
			r := rng.New(seed)
			p.W.FillNormal(r, 0, 1)
			p.G.FillNormal(r, 0, 0.1)
			return p
		}
		cfg := LARSConfig{Momentum: 0, WeightDecay: 0, Trust: 0.01}
		p1 := mk()
		NewLARS([]*nn.Param{p1}, cfg).Step(0.5)
		p2 := mk()
		p2.G.Scale(float32(scale))
		NewLARS([]*nn.Param{p2}, cfg).Step(0.5)
		for i := range p1.W.Data {
			if math.Abs(float64(p1.W.Data[i]-p2.W.Data[i])) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestLARSRelativeUpdateBounded verifies ‖Δw‖/‖w‖ ≈ Trust·lr regardless of
// gradient magnitude — the "same relative step for every layer" behaviour.
func TestLARSRelativeUpdateBounded(t *testing.T) {
	for _, gradScale := range []float32{1e-4, 1, 1e4} {
		p := nn.NewParam("w", 256)
		r := rng.New(7)
		p.W.FillNormal(r, 0, 1)
		p.G.FillNormal(r, 0, gradScale)
		before := p.W.Clone()
		cfg := LARSConfig{Momentum: 0, WeightDecay: 0, Trust: 0.001}
		NewLARS([]*nn.Param{p}, cfg).Step(1)
		before.Sub(p.W) // Δw
		rel := before.Norm2() / p.W.Norm2()
		want := cfg.Trust * 1
		if math.Abs(rel-want)/want > 0.05 {
			t.Errorf("gradScale %v: relative update %v, want ~%v", gradScale, rel, want)
		}
	}
}

func TestLARSZeroWeightFallback(t *testing.T) {
	// A zero-norm parameter must not divide by zero; the local rate
	// falls back to 1 (plain SGD step).
	p := nn.NewParam("w", 4)
	p.G.Data[0] = 1
	l := NewLARS([]*nn.Param{p}, paperLARS)
	l.Step(0.1)
	if p.W.HasNaN() {
		t.Fatal("LARS produced NaN on zero weights")
	}
	if p.W.Data[0] == 0 {
		t.Fatal("LARS did not update zero weights at all")
	}
}

func TestLARSNoDecayParamPlainSGD(t *testing.T) {
	p := nn.NewParam("bias", 2)
	p.NoDecay = true
	p.W.Data[0] = 1
	p.G.Data[0] = 0.5
	l := NewLARS([]*nn.Param{p}, paperLARS)
	l.Step(0.1)
	want := 1 - 0.1*0.5
	if math.Abs(float64(p.W.Data[0])-want) > 1e-6 {
		t.Fatalf("bias update = %v, want %v (plain SGD)", p.W.Data[0], want)
	}
}

// TestLARSVsSGDLargeLR: with an absurdly large global rate, plain SGD blows
// weights up by orders of magnitude while LARS keeps the relative step
// bounded. This is the mechanism behind the paper's Figure 4.
func TestLARSVsSGDLargeLR(t *testing.T) {
	mk := func() *nn.Param { return makeParam(t, 5, 512) }

	sgdP := mk()
	before := sgdP.W.Norm2()
	NewSGD([]*nn.Param{sgdP}, SGDConfig{}).Step(100)
	sgdGrowth := sgdP.W.Norm2() / before

	larsP := mk()
	NewLARS([]*nn.Param{larsP}, paperLARS).Step(100)
	larsGrowth := larsP.W.Norm2() / before

	if sgdGrowth < 5 {
		t.Fatalf("SGD at lr=100 should explode, grew only %vx", sgdGrowth)
	}
	if larsGrowth > 2 {
		t.Fatalf("LARS at lr=100 should stay bounded, grew %vx", larsGrowth)
	}
}
