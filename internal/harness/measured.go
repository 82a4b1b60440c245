package harness

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/models"
)

// Setup fixes the measured-experiment configuration: the SynthImageNet task
// and the tuned micro-AlexNet recipe. The defaults are the calibration used
// throughout EXPERIMENTS.md; benches shrink Epochs for speed. Setup keeps
// every result it trains, so the measured tables are views of one sweep and
// a configuration they share trains once: it is read-only after its first
// run, as its lazily built dataset already assumes.
type Setup struct {
	Classes   int
	ImageSize int
	TrainSize int
	Width     int
	Epochs    int
	BaseLR    float64
	BaseBatch int
	Workers   int
	Seed      uint64

	ds   *data.Synth
	runs map[runKey]*core.Result
}

// runKey tells the sweep's runs apart; the Setup fixes the rest of each.
type runKey struct {
	method core.Method
	batch  int
	baseLR float64
}

// DefaultSetup returns the tuned measured-experiment configuration:
// 8-class 16x16 SynthImageNet (2048 train / 1024 test), micro-AlexNet-BN
// width 8, a 20-epoch budget, base rate 0.05 at batch 32.
func DefaultSetup() *Setup {
	return &Setup{
		Classes: 8, ImageSize: 16, TrainSize: 2048, Width: 8,
		Epochs: 20, BaseLR: 0.05, BaseBatch: 32, Workers: 2, Seed: 1,
	}
}

// Dataset lazily generates (and caches) the synthetic dataset.
func (s *Setup) Dataset() *data.Synth {
	if s.ds == nil {
		cfg := data.DefaultSynthConfig()
		cfg.Classes = s.Classes
		cfg.H, cfg.W = s.ImageSize, s.ImageSize
		cfg.TrainSize = s.TrainSize
		s.ds = data.GenerateSynth(cfg)
	}
	return s.ds
}

// Spec is this setup's micro-AlexNet recipe: Spec().Factory() builds the
// replicas, and the spec itself prices their flops.
func (s *Setup) Spec() *models.ModelSpec {
	return models.MicroAlexNetSpec(models.MicroConfig{Classes: s.Classes, InH: s.ImageSize, Width: s.Width})
}

// SweepBatches returns the large-batch ladder used by Figure 1 and Table 7,
// expressed as fractions of the training set (1/8, 1/4, 1/2, 1/1) so the
// sweep scales with the dataset. At the default 2048-example set this is
// {256, 512, 1024, 2048}, which the EXPERIMENTS.md mapping aligns with the
// paper's 8K/16K/32K/64K columns.
func (s *Setup) SweepBatches() []int {
	return []int{s.TrainSize / 8, s.TrainSize / 4, s.TrainSize / 2, s.TrainSize}
}

// LargeBatch is the "32K analog": half the training set, the largest batch
// at which LARS still recovers baseline accuracy.
func (s *Setup) LargeBatch() int { return s.TrainSize / 2 }

// WarmupFor mirrors the paper's per-batch warmup tuning (Table 7: 13 epochs
// at 4K, 8 at 8K, 5 at 32K): the more extreme the batch relative to the
// dataset, the longer the ramp.
func (s *Setup) WarmupFor(batch int) float64 {
	switch {
	case batch <= s.BaseBatch:
		return 0
	case batch <= s.TrainSize/8:
		return 2
	case batch <= s.TrainSize/2:
		return 5
	default:
		return 12
	}
}

// TrustFor returns the LARS trust coefficient for a batch size. The paper
// uses 0.001 at ImageNet scale; the micro models want a larger coefficient
// (fewer layers, larger relative gradient noise), tuned once and fixed.
func (s *Setup) TrustFor(batch int) float64 {
	if batch >= s.TrainSize {
		return 0.03
	}
	return 0.05
}

// run is the measured tables' one way to core.Train: it trains a
// configuration of the sweep once and returns the kept result after.
func (s *Setup) run(method core.Method, batch int, baseLR float64) (*core.Result, error) {
	key := runKey{method, batch, baseLR}
	if res, ok := s.runs[key]; ok {
		return res, nil
	}
	cfg := core.Config{
		Model:        s.Spec().Factory(),
		Workers:      s.Workers,
		Batch:        batch,
		Epochs:       s.Epochs,
		Method:       method,
		BaseLR:       baseLR,
		BaseBatch:    s.BaseBatch,
		WarmupEpochs: s.WarmupFor(batch),
		Trust:        s.TrustFor(batch),
		Seed:         s.Seed,
	}
	if method == core.BaselineSGD {
		cfg.WarmupEpochs = 0
	}
	res, err := core.Train(cfg, s.Dataset())
	if err != nil {
		return nil, err
	}
	if s.runs == nil {
		s.runs = map[runKey]*core.Result{}
	}
	s.runs[key] = res
	return res, nil
}

// accAt is a run's test accuracy after epoch e, or NaN past its history (a
// diverged run stops early).
func accAt(res *core.Result, e int) float64 {
	if e < len(res.History) {
		return res.History[e].TestAcc
	}
	return math.NaN()
}

func pct(v float64) string {
	if math.IsNaN(v) {
		return "—"
	}
	return fmt.Sprintf("%.1f%%", 100*v)
}

// Figure1 runs the measured accuracy-vs-batch-size comparison: LARS +
// warmup versus linear scaling + warmup, under the fixed epoch budget.
// This is the repository's analog of the paper's headline Figure 1 (and the
// 16K/32K columns of Table 10).
func Figure1(s *Setup) (*Table, error) {
	t := &Table{
		ID: "Figure 1", Title: "Top-1 accuracy vs batch size (measured on SynthImageNet)",
		Header: []string{"batch", "batch/dataset", "linear+warmup", "LARS+warmup", "paper analog"},
	}
	base, err := s.run(core.BaselineSGD, s.BaseBatch, s.BaseLR)
	if err != nil {
		return nil, err
	}
	t.Add(fmt.Sprintf("%d (baseline)", s.BaseBatch),
		fmt.Sprintf("%.1f%%", 100*float64(s.BaseBatch)/float64(s.TrainSize)),
		pct(base.TestAcc), pct(base.TestAcc), "B=256 baseline: 73.0%/76.3%")
	paperAnalog := []string{
		"B=8K: both fine (75.3% vs 76.2%)",
		"B=16K: LARS 75.3% vs FB 75.2%",
		"B=32K: LARS 75.4% vs FB 72.4%",
		"B=64K: LARS 73.2% vs FB 66.0%",
	}
	for i, b := range s.SweepBatches() {
		lin, err := s.run(core.LinearScalingWarmup, b, s.BaseLR)
		if err != nil {
			return nil, err
		}
		lars, err := s.run(core.LARSWarmup, b, s.BaseLR)
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("%d", b),
			fmt.Sprintf("%.0f%%", 100*float64(b)/float64(s.TrainSize)),
			pct(lin.TestAcc), pct(lars.TestAcc), paperAnalog[i])
	}
	t.Note("Fixed %d-epoch budget; the batch/dataset column maps batch sizes onto the paper's regime (32K/1.28M = 2.6%%).", s.Epochs)
	t.Note("Shape match: linear scaling collapses once the batch passes ~25%% of the dataset; LARS holds accuracy well past it.")
	return t, nil
}

// Table5 runs the measured learning-rate sweep at a large batch without
// LARS: the paper's Table 5 shows accuracy topping out well below baseline
// and collapsing to 0.1% once the linear-scaled rate is reached.
func Table5(s *Setup) (*Table, error) {
	batch := s.LargeBatch() // the "4096" analog
	t := &Table{
		ID: "Table 5", Title: fmt.Sprintf("Linear scaling + warmup at batch %d: base-LR sweep (no LARS)", batch),
		Header: []string{"base LR", "effective LR", "warmup", "epochs", "test accuracy"},
	}
	for _, mult := range []float64{0.125, 0.25, 0.5, 1, 2, 4, 8} {
		res, err := s.run(core.LinearScalingWarmup, batch, s.BaseLR*mult)
		if err != nil {
			return nil, err
		}
		acc := pct(res.TestAcc)
		if res.Diverged {
			acc += " (diverged)"
		}
		t.Add(fmt.Sprintf("%.4f", res.Config.BaseLR), fmt.Sprintf("%.2f", res.Config.TargetLR()),
			fmt.Sprintf("%.0f ep", res.Config.WarmupEpochs), fmt.Sprintf("%d", s.Epochs), acc)
	}
	t.Note("Paper's Table 5 (AlexNet B=4096): best 53.1%% far below the 58%% baseline, and 0.1%% at LR >= 0.07.")
	t.Note("Shape match: the prescribed linearly-scaled rate collapses, and large rates hit chance (the 0.1%% analog). " +
		"Difference: at this micro scale a hand-tuned sub-scaled rate can still come close to baseline, where the paper's full-scale task cannot.")
	return t, nil
}

// Table7 runs the measured LARS sweep: with per-batch warmup, accuracy
// stays flat across batch sizes (the paper's 0.583/0.584/0.583/0.585).
func Table7(s *Setup) (*Table, error) {
	t := &Table{
		ID: "Table 7", Title: "LARS + warmup across batch sizes (measured)",
		Header: []string{"batch", "LR rule", "warmup", "epochs", "test accuracy"},
	}
	base, err := s.run(core.BaselineSGD, s.BaseBatch, s.BaseLR)
	if err != nil {
		return nil, err
	}
	t.Add(fmt.Sprintf("%d", s.BaseBatch), "regular", "N/A", fmt.Sprintf("%d", s.Epochs), pct(base.TestAcc))
	for _, b := range s.SweepBatches() {
		res, err := s.run(core.LARSWarmup, b, s.BaseLR)
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("%d", b), "LARS",
			fmt.Sprintf("%.0f epochs", s.WarmupFor(b)),
			fmt.Sprintf("%d", s.Epochs), pct(res.TestAcc))
	}
	t.Note("Paper's Table 7 (AlexNet-BN): 58.3-58.5%% from B=512 through B=32K with LARS.")
	return t, nil
}

// Figure4 runs the measured per-epoch accuracy curves at a large batch,
// with and without LARS — the paper's Figure 4 (a)/(b).
func Figure4(s *Setup) (*Table, error) {
	batch := s.LargeBatch()
	lin, err := s.run(core.LinearScalingWarmup, batch, s.BaseLR)
	if err != nil {
		return nil, err
	}
	lars, err := s.run(core.LARSWarmup, batch, s.BaseLR)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "Figure 4", Title: fmt.Sprintf("Test accuracy vs epoch at batch %d (measured)", batch),
		Header: []string{"epoch", "linear+warmup", "LARS+warmup"},
	}
	for e := 0; e < s.Epochs; e++ {
		t.Add(fmt.Sprintf("%d", e), pct(accAt(lin, e)), pct(accAt(lars, e)))
	}
	t.Note("Paper's Figure 4: without LARS the 16K/32K runs plateau ~10 points low; with LARS they track the baseline.")
	return t, nil
}

// Figure5and6 runs the fixed-budget curves: a small-batch baseline and a
// large LARS batch reach the same accuracy in the same number of epochs
// (Figure 5), and therefore in the same number of floating-point operations
// (Figure 6).
func Figure5and6(s *Setup) (*Table, error) {
	small, err := s.run(core.BaselineSGD, s.BaseBatch, s.BaseLR)
	if err != nil {
		return nil, err
	}
	largeB := s.TrainSize / 4
	large, err := s.run(core.LARSWarmup, largeB, s.BaseLR)
	if err != nil {
		return nil, err
	}
	flopsPerEpoch := float64(s.Spec().TrainFLOPsPerImage()) * float64(s.TrainSize)
	t := &Table{
		ID: "Figures 5 & 6", Title: fmt.Sprintf("Accuracy vs epochs and vs flops (B=%d baseline, B=%d LARS)", s.BaseBatch, largeB),
		Header: []string{"epoch", "train GFLOPs", fmt.Sprintf("B=%d", s.BaseBatch), fmt.Sprintf("B=%d LARS", largeB)},
	}
	for e := 0; e < s.Epochs; e++ {
		t.Add(fmt.Sprintf("%d", e), fmt.Sprintf("%.1f", float64(e+1)*flopsPerEpoch/1e9), pct(accAt(small, e)), pct(accAt(large, e)))
	}
	t.Note("Fixed epochs = fixed flops: the large batch needs no extra operations to match the baseline (Figure 6).")
	return t, nil
}
