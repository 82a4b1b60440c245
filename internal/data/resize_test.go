package data

import (
	"math"
	"testing"

	"repro/internal/kernel"
)

func TestParseResolutionSchedule(t *testing.T) {
	s, err := ParseResolutionSchedule("12x12@0-3,24x24@4+")
	if err != nil {
		t.Fatal(err)
	}
	for epoch, want := range map[int][2]int{0: {12, 12}, 3: {12, 12}, 4: {24, 24}, 100: {24, 24}} {
		h, w := s.At(epoch)
		if h != want[0] || w != want[1] {
			t.Errorf("At(%d) = %dx%d, want %dx%d", epoch, h, w, want[0], want[1])
		}
	}
	if got, want := s.String(), "12x12@0-3,24x24@4+"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if len(s.Phases()) != 2 {
		t.Errorf("two-resolution schedule has phases %+v", s.Phases())
	}

	fixed, err := ParseResolutionSchedule("24x16")
	if err != nil {
		t.Fatal(err)
	}
	if h, w := fixed.At(7); h != 24 || w != 16 {
		t.Errorf("bare HxW schedule At(7) = %dx%d, want 24x16", h, w)
	}
	if len(fixed.Phases()) != 1 {
		t.Errorf("single-resolution schedule has phases %+v", fixed.Phases())
	}

	three, err := ParseResolutionSchedule("8x8@0-1,12x12@2-4,24x24@5+")
	if err != nil {
		t.Fatal(err)
	}
	phases := three.PhasesIn(4)
	if len(phases) != 2 || phases[0].Epochs(4) != 2 || phases[1].Epochs(4) != 2 {
		t.Errorf("PhasesIn(4) = %+v, want two 2-epoch phases", phases)
	}

	for _, bad := range []string{
		"",
		"12x12@1-3,24x24@4+",  // does not start at 0
		"12x12@0-3,24x24@5+",  // gap
		"12x12@0-3,24x24@4-8", // final phase not open
		"12x12@0-3",           // final phase not open
		"0x12@0+",             // non-positive
		"12y12@0+",            // bad syntax
		"12x12@x+",            // bad epoch
	} {
		if _, err := ParseResolutionSchedule(bad); err == nil {
			t.Errorf("ParseResolutionSchedule(%q) accepted, want error", bad)
		}
	}
}

// GatherAt at native resolution is byte-for-byte Gather; at other
// resolutions it matches resizing each channel plane with the kernel
// directly, for a non-square dataset.
func TestGatherAtMatchesKernel(t *testing.T) {
	cfg := smallCfg()
	cfg.H, cfg.W = 24, 16
	s := GenerateSynth(cfg)
	idx := []int{3, 1, 4}

	native, labels, err := s.Train.GatherAt(idx, 24, 16)
	if err != nil {
		t.Fatal(err)
	}
	plain, plainLabels := s.Train.MustGather(idx)
	for i := range native.Data {
		if math.Float32bits(native.Data[i]) != math.Float32bits(plain.Data[i]) {
			t.Fatalf("native-resolution GatherAt diverges from Gather at %d", i)
		}
	}
	for i := range labels {
		if labels[i] != plainLabels[i] {
			t.Fatal("GatherAt labels differ from Gather")
		}
	}

	small, _, err := s.Train.GatherAt(idx, 12, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := small.Shape; got[0] != 3 || got[1] != 3 || got[2] != 12 || got[3] != 8 {
		t.Fatalf("GatherAt shape %v, want [3,3,12,8]", got)
	}
	want := make([]float32, 12*8)
	for i, j := range idx {
		for c := 0; c < 3; c++ {
			src := s.Train.Images.Data[(j*3+c)*24*16 : (j*3+c+1)*24*16]
			kernel.ResizePlane(want, 12, 8, src, 24, 16)
			got := small.Data[(i*3+c)*12*8 : (i*3+c+1)*12*8]
			for k := range want {
				if math.Float32bits(got[k]) != math.Float32bits(want[k]) {
					t.Fatalf("example %d channel %d: GatherAt differs from kernel resize at %d", i, c, k)
				}
			}
		}
	}
}

// Satellite audit: synth generation with H ≠ W. The render loops stride
// rows by cfg.W and channels by cfg.H*cfg.W; a 24x16 dataset must place a
// zero-shift, zero-noise, unflipped sample exactly on its template.
func TestSynthNonSquare(t *testing.T) {
	cfg := SynthConfig{
		Classes: 4, TrainSize: 16, TestSize: 8,
		C: 3, H: 24, W: 16, Noise: 0, MaxShift: 0, Flip: false, Seed: 7,
	}
	s := GenerateSynth(cfg)
	if got := s.Train.Images.Shape; got[1] != 3 || got[2] != 24 || got[3] != 16 {
		t.Fatalf("train shape %v, want [16,3,24,16]", got)
	}
	imLen := 3 * 24 * 16
	for i := 0; i < s.Train.Len(); i++ {
		k := s.Train.Labels[i]
		for j := 0; j < imLen; j++ {
			if s.Train.Images.Data[i*imLen+j] != s.Templates.Data[k*imLen+j] {
				t.Fatalf("example %d (class %d) diverges from template at %d: noiseless unshifted synth must be exact", i, k, j)
			}
		}
	}

	// Per-channel normalization must hold on the rectangular grid: zero
	// mean, unit variance over each 24x16 plane.
	for k := 0; k < cfg.Classes; k++ {
		for c := 0; c < cfg.C; c++ {
			plane := s.Templates.Data[(k*3+c)*24*16 : (k*3+c+1)*24*16]
			var sum, sumSq float64
			for _, v := range plane {
				sum += float64(v)
				sumSq += float64(v) * float64(v)
			}
			n := float64(len(plane))
			mean := sum / n
			variance := sumSq/n - mean*mean
			if math.Abs(mean) > 1e-4 || math.Abs(variance-1) > 1e-3 {
				t.Errorf("template %d channel %d: mean %g var %g, want 0/1", k, c, mean, variance)
			}
		}
	}
}
