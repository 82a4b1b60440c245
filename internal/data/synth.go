package data

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// SynthConfig parameterizes the synthetic dataset generator.
type SynthConfig struct {
	Classes   int
	TrainSize int
	TestSize  int
	C, H, W   int
	// Noise is the additive Gaussian noise σ applied per pixel. Higher
	// noise widens the generalization gap between small and large batches.
	Noise float32
	// MaxShift is the largest cyclic translation (pixels) applied when a
	// sample is rendered from its class template. Translations are what
	// make crop augmentation informative.
	MaxShift int
	// Flip renders half the samples mirrored so horizontal-flip
	// augmentation carries signal.
	Flip bool
	Seed uint64
}

// DefaultSynthConfig returns a laptop-scale dataset: 8 classes of 24x24 RGB
// images, 4096 train / 1024 test examples.
func DefaultSynthConfig() SynthConfig {
	return SynthConfig{
		Classes: 8, TrainSize: 4096, TestSize: 1024,
		C: 3, H: 24, W: 24,
		Noise: 0.35, MaxShift: 4, Flip: true,
		Seed: 20180901,
	}
}

// Validate names the first field GenerateSynth cannot render a dataset
// from: commands check it so a bad flag is one line, not a panic trace.
func (c SynthConfig) Validate() error {
	switch {
	case c.Classes < 2:
		return fmt.Errorf("data: SynthConfig.Classes = %d: need at least 2 classes", c.Classes)
	case c.TrainSize < 1:
		return fmt.Errorf("data: SynthConfig.TrainSize = %d: need at least 1 training example", c.TrainSize)
	case c.TestSize < 0:
		return fmt.Errorf("data: SynthConfig.TestSize = %d: cannot be negative", c.TestSize)
	case c.C < 1 || c.H < 1 || c.W < 1:
		return fmt.Errorf("data: SynthConfig image %dx%dx%d (C, H, W): every extent must be positive", c.C, c.H, c.W)
	}
	return nil
}

// Synth holds the generated train/test split plus the class templates
// (exposed for tests that check separability directly).
type Synth struct {
	Train, Test *Dataset
	Templates   *tensor.Tensor // [Classes, C, H, W]
	Config      SynthConfig
}

// GenerateSynth builds a deterministic synthetic dataset. Each class is a
// smooth band-limited random field (a sum of low-frequency sinusoids per
// channel); samples are cyclic translations of the class template, optional
// mirror images, plus per-pixel Gaussian noise. The construction guarantees:
//
//   - classes are separable by a convnet (smooth translated patterns),
//   - single samples are ambiguous enough that optimization quality matters
//     (noise σ comparable to signal),
//   - the distribution is exactly reproducible from the seed.
//
// It panics with cfg.Validate's error on a config it cannot render.
func GenerateSynth(cfg SynthConfig) *Synth {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	root := rng.New(cfg.Seed)
	templates := tensor.New(cfg.Classes, cfg.C, cfg.H, cfg.W)
	tmplRNG := root.Split()
	for k := 0; k < cfg.Classes; k++ {
		renderTemplate(tmplRNG.Split(), templates, k, cfg)
	}
	s := &Synth{Templates: templates, Config: cfg}
	s.Train = renderSet(root.Split(), templates, cfg, cfg.TrainSize)
	s.Test = renderSet(root.Split(), templates, cfg, cfg.TestSize)
	return s
}

// renderTemplate fills templates[k] with a smooth random field of unit
// variance per channel.
func renderTemplate(r *rng.Rand, templates *tensor.Tensor, k int, cfg SynthConfig) {
	imLen := cfg.C * cfg.H * cfg.W
	base := k * imLen
	const waves = 5
	for c := 0; c < cfg.C; c++ {
		type wave struct {
			fh, fw, phase, amp float64
		}
		ws := make([]wave, waves)
		for i := range ws {
			ws[i] = wave{
				fh:    float64(r.Intn(3) + 1),
				fw:    float64(r.Intn(3) + 1),
				phase: 2 * math.Pi * r.Float64(),
				amp:   0.5 + r.Float64(),
			}
			if r.Bool() {
				ws[i].fh = -ws[i].fh
			}
		}
		var sum, sumSq float64
		plane := templates.Data[base+c*cfg.H*cfg.W : base+(c+1)*cfg.H*cfg.W]
		for h := 0; h < cfg.H; h++ {
			for w := 0; w < cfg.W; w++ {
				var v float64
				for _, wv := range ws {
					v += wv.amp * math.Sin(2*math.Pi*(wv.fh*float64(h)/float64(cfg.H)+wv.fw*float64(w)/float64(cfg.W))+wv.phase)
				}
				plane[h*cfg.W+w] = float32(v)
				sum += v
				sumSq += v * v
			}
		}
		// Normalize channel to zero mean, unit variance.
		n := float64(cfg.H * cfg.W)
		mean := sum / n
		std := math.Sqrt(sumSq/n - mean*mean)
		if std < 1e-6 {
			std = 1
		}
		for i := range plane {
			plane[i] = float32((float64(plane[i]) - mean) / std)
		}
	}
}

// renderSet draws n labelled samples from the template distribution.
func renderSet(r *rng.Rand, templates *tensor.Tensor, cfg SynthConfig, n int) *Dataset {
	imLen := cfg.C * cfg.H * cfg.W
	x := tensor.New(n, cfg.C, cfg.H, cfg.W)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		k := i % cfg.Classes // balanced labels
		labels[i] = k
		dy, dx := 0, 0
		if cfg.MaxShift > 0 {
			dy = r.Intn(2*cfg.MaxShift+1) - cfg.MaxShift
			dx = r.Intn(2*cfg.MaxShift+1) - cfg.MaxShift
		}
		mirror := cfg.Flip && r.Bool()
		dst := x.Data[i*imLen : (i+1)*imLen]
		src := templates.Data[k*imLen : (k+1)*imLen]
		for c := 0; c < cfg.C; c++ {
			for h := 0; h < cfg.H; h++ {
				sh := ((h+dy)%cfg.H + cfg.H) % cfg.H
				for w := 0; w < cfg.W; w++ {
					sw := ((w+dx)%cfg.W + cfg.W) % cfg.W
					if mirror {
						sw = cfg.W - 1 - sw
					}
					dst[(c*cfg.H+h)*cfg.W+w] = src[(c*cfg.H+sh)*cfg.W+sw] + cfg.Noise*r.NormFloat32()
				}
			}
		}
	}
	perm := r.Perm(n)
	shuffled := tensor.New(n, cfg.C, cfg.H, cfg.W)
	shuffledLabels := make([]int, n)
	for i, j := range perm {
		copy(shuffled.Data[i*imLen:(i+1)*imLen], x.Data[j*imLen:(j+1)*imLen])
		shuffledLabels[i] = labels[j]
	}
	return &Dataset{Images: shuffled, Labels: shuffledLabels, Classes: cfg.Classes}
}
