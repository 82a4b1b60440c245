package opt

import (
	"testing"

	"repro/internal/nn"
	"repro/internal/rng"
)

// mlpParams is the parameter set of the comm-bound benchmark workload's
// MLP (3·24·24 → 512 → 512 → 8): 1.15M weights in three matrices and three
// NoDecay biases, filled with noise.
func mlpParams() []*nn.Param {
	r := rng.New(5)
	var ps []*nn.Param
	for _, sh := range [][2]int{{512, 1728}, {512, 512}, {8, 512}} {
		w := nn.NewParam("w", sh[0], sh[1])
		b := nn.NewParam("b", sh[0])
		b.NoDecay = true
		for _, p := range []*nn.Param{w, b} {
			p.W.FillNormal(r, 0, 0.05)
			p.G.FillNormal(r, 0, 0.01)
		}
		ps = append(ps, w, b)
	}
	return ps
}

// normSink keeps the norms sub-benchmark's results live.
var normSink float64

// BenchmarkLARSStep times one LARS step over the MLP's parameters ("step":
// each parameter's fused norm pass, then its momentum update) and each of
// the two passes alone: "norms", the strict float64 chains, and "update",
// kernel.Momentum at every parameter's local rate.
func BenchmarkLARSStep(b *testing.B) {
	params := mlpParams()
	l := NewLARS(params, LARSConfig{Momentum: 0.9, WeightDecay: 5e-4, Trust: 0.05})
	var numel int64
	for _, p := range params {
		numel += int64(p.Numel())
	}
	b.Run("step", func(b *testing.B) {
		b.SetBytes(4 * numel)
		for i := 0; i < b.N; i++ {
			l.Step(1e-3)
		}
	})
	b.Run("norms", func(b *testing.B) {
		b.SetBytes(4 * numel)
		for i := 0; i < b.N; i++ {
			for _, p := range params {
				normSink, _ = norms(p.W.Data, p.G.Data)
			}
		}
	})
	b.Run("update", func(b *testing.B) {
		b.SetBytes(4 * numel)
		for i := 0; i < b.N; i++ {
			for j, p := range params {
				l.update(j, 0.9, 1e-3*float32(l.ratios[j]), 5e-4, !p.NoDecay)
			}
		}
	})
}
