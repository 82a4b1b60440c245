package opt

import (
	"math"

	"repro/internal/nn"
)

// eps guards the trust-ratio denominator for zero gradients.
const eps = 1e-9

// LARSConfig configures Layer-wise Adaptive Rate Scaling.
type LARSConfig struct {
	Momentum    float64 // typically 0.9
	WeightDecay float64 // typically 0.0005
	// Trust is the LARS trust coefficient η; You/Gitman/Ginsburg use 0.001
	// for ImageNet-scale networks (the default when zero).
	Trust float64
}

// LARS implements Layer-wise Adaptive Rate Scaling, the paper's core
// algorithm. Each layer (parameter tensor) ℓ gets its own local rate derived
// from the ratio of weight norm to gradient norm:
//
//	localLR = Trust · ‖w_ℓ‖ / (‖∇w_ℓ‖ + λ‖w_ℓ‖)
//	v_ℓ ← m·v_ℓ + lr·localLR·(∇w_ℓ + λ·w_ℓ)
//	w_ℓ ← w_ℓ − v_ℓ
//
// The intuition: with very large batches the linear scaling rule demands a
// global rate so large that layers whose ‖∇w‖/‖w‖ is big (early conv layers)
// diverge while others barely move. Normalizing the step size per layer
// keeps every layer's relative update ‖Δw‖/‖w‖ ≈ Trust·lr, which is what
// lets batch size reach 32K without accuracy loss (Figure 4, Table 7).
//
// Parameters marked NoDecay (biases, BN affine) fall back to plain momentum
// SGD without decay, mirroring the reference NVIDIA Caffe implementation.
type LARS struct {
	momentum
	cfg LARSConfig
	// ratios records the most recent local rate per parameter for
	// diagnostics (the LARS statistics the paper plots informally).
	ratios []float64
}

// NewLARS builds a LARS optimizer over params.
func NewLARS(params []*nn.Param, cfg LARSConfig) *LARS {
	if cfg.Trust == 0 {
		cfg.Trust = 0.001
	}
	return &LARS{momentum: newMomentum(params), cfg: cfg, ratios: make([]float64, len(params))}
}

// Step applies one update at the global learning rate lr. The caller zeroes
// the gradients afterwards.
func (l *LARS) Step(lr float64) {
	for i, p := range l.params {
		local := 1.0
		if !p.NoDecay {
			if wNorm, gNorm := norms(p.W.Data, p.G.Data); wNorm > 0 {
				local = l.cfg.Trust * wNorm / (gNorm + float64(l.cfg.WeightDecay*wNorm) + eps)
			}
		}
		l.ratios[i] = local
		l.update(i, float32(l.cfg.Momentum), float32(lr*local), float32(l.cfg.WeightDecay), !p.NoDecay)
	}
}

// norms returns the Euclidean norms of w and g, each bit-identical to
// tensor.Norm2's (the same strict-order float64 chain, which no vector unit
// may reorder); the two chains are independent, so one pass runs both for
// the latency of one. Each square is converted to float64 explicitly, which
// forbids the compiler from fusing it into the add (arm64 would).
func norms(w, g []float32) (wNorm, gNorm float64) {
	g = g[:len(w)]
	var sw, sg float64
	for i, v := range w {
		a, b := float64(v), float64(g[i])
		sw += float64(a * a)
		sg += float64(b * b)
	}
	return math.Sqrt(sw), math.Sqrt(sg)
}

// TrustRatios returns the per-parameter local rates from the last Step, in
// parameter order. Useful for diagnosing which layers LARS throttles.
func (l *LARS) TrustRatios() []float64 {
	out := make([]float64, len(l.ratios))
	copy(out, l.ratios)
	return out
}
