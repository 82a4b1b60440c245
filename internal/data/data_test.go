package data

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/tensor"
)

func smallCfg() SynthConfig {
	return SynthConfig{
		Classes: 4, TrainSize: 64, TestSize: 32,
		C: 3, H: 12, W: 12, Noise: 0.3, MaxShift: 2, Flip: true, Seed: 42,
	}
}

func TestGenerateSynthShapes(t *testing.T) {
	s := GenerateSynth(smallCfg())
	if s.Train.Len() != 64 || s.Test.Len() != 32 {
		t.Fatalf("sizes %d/%d", s.Train.Len(), s.Test.Len())
	}
	c, h, w := s.Train.ImageShape()
	if c != 3 || h != 12 || w != 12 {
		t.Fatalf("image shape %d %d %d", c, h, w)
	}
	if s.Templates.Shape[0] != 4 {
		t.Fatalf("template count %d", s.Templates.Shape[0])
	}
}

func TestGenerateSynthDeterministic(t *testing.T) {
	a := GenerateSynth(smallCfg())
	b := GenerateSynth(smallCfg())
	for i := range a.Train.Images.Data {
		if a.Train.Images.Data[i] != b.Train.Images.Data[i] {
			t.Fatal("same seed must give identical data")
		}
	}
	cfg := smallCfg()
	cfg.Seed++
	c := GenerateSynth(cfg)
	same := 0
	for i := range a.Train.Images.Data {
		if a.Train.Images.Data[i] == c.Train.Images.Data[i] {
			same++
		}
	}
	if same == len(a.Train.Images.Data) {
		t.Fatal("different seeds produced identical data")
	}
}

func TestLabelsBalanced(t *testing.T) {
	s := GenerateSynth(smallCfg())
	counts := make([]int, 4)
	for _, l := range s.Train.Labels {
		counts[l]++
	}
	for k, c := range counts {
		if c != 16 {
			t.Fatalf("class %d has %d examples, want 16", k, c)
		}
	}
}

// TestTemplateSeparability classifies test images by correlation with the
// class templates. Accuracy far above chance confirms the task is learnable;
// accuracy below 100% confirms it is not trivial.
func TestTemplateSeparability(t *testing.T) {
	cfg := smallCfg()
	cfg.MaxShift = 0 // plain correlation is not shift-invariant
	cfg.Flip = false
	s := GenerateSynth(cfg)
	imLen := 3 * 12 * 12
	correct := 0
	for i := 0; i < s.Test.Len(); i++ {
		img := s.Test.Images.Data[i*imLen : (i+1)*imLen]
		best, bestV := -1, math.Inf(-1)
		for k := 0; k < cfg.Classes; k++ {
			tmpl := s.Templates.Data[k*imLen : (k+1)*imLen]
			var dot float64
			for j := range img {
				dot += float64(img[j]) * float64(tmpl[j])
			}
			if dot > bestV {
				best, bestV = k, dot
			}
		}
		if best == s.Test.Labels[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(s.Test.Len())
	if acc < 0.9 {
		t.Fatalf("template matching accuracy %v, want >= 0.9 (task unlearnable?)", acc)
	}
}

func TestGather(t *testing.T) {
	s := GenerateSynth(smallCfg())
	x, labels, err := s.Train.Gather([]int{3, 1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if x.Shape[0] != 3 || len(labels) != 3 {
		t.Fatalf("gather shape %v, %d labels", x.Shape, len(labels))
	}
	if labels[0] != s.Train.Labels[3] || labels[2] != s.Train.Labels[4] {
		t.Fatal("gather labels wrong")
	}
	imLen := 3 * 12 * 12
	for j := 0; j < imLen; j++ {
		if x.Data[imLen+j] != s.Train.Images.Data[1*imLen+j] {
			t.Fatal("gather image data wrong")
		}
	}
	// Mutating the gathered copy must not touch the dataset.
	x.Data[0] += 100
	if s.Train.Images.Data[3*imLen] == x.Data[0] {
		t.Fatal("gather must copy")
	}
}

// Out-of-range indices and image/label skew surface as *ShapeError — the
// typed contract that replaced the old panic.
func TestGatherShapeErrors(t *testing.T) {
	s := GenerateSynth(smallCfg())
	_, _, err := s.Train.Gather([]int{9999})
	var se *ShapeError
	if !errors.As(err, &se) {
		t.Fatalf("out-of-range Gather returned %v, want *ShapeError", err)
	}
	if se.Op != "Gather" || se.Index != 9999 {
		t.Fatalf("ShapeError = %+v, want Op=Gather Index=9999", se)
	}

	skew := &Dataset{Images: s.Train.Images, Labels: s.Train.Labels[:4], Classes: s.Train.Classes}
	if _, _, err := skew.Gather([]int{0}); !errors.As(err, &se) {
		t.Fatalf("image/label skew returned %v, want *ShapeError", err)
	}
	if _, _, err := skew.GatherAt([]int{0}, 6, 6); !errors.As(err, &se) {
		t.Fatalf("GatherAt on skewed dataset returned %v, want *ShapeError", err)
	}
	if _, err := skew.Subset([]int{0}); !errors.As(err, &se) {
		t.Fatalf("Subset on skewed dataset returned %v, want *ShapeError", err)
	}

	flat := &Dataset{Images: tensor.New(4, 3*12*12), Labels: make([]int, 4), Classes: 2}
	if _, _, err := flat.Gather([]int{0}); !errors.As(err, &se) {
		t.Fatalf("non-4d images returned %v, want *ShapeError", err)
	}

	if _, _, err := s.Train.GatherAt([]int{0}, 0, 12); !errors.As(err, &se) {
		t.Fatalf("non-positive resize target returned %v, want *ShapeError", err)
	}
}

// Property: the shard split partitions a batch — Spans tiles [0, n) with
// contiguous spans whose sizes differ by at most one, longest first.
func TestShardPartitionProperty(t *testing.T) {
	f := func(nn, kk uint8) bool {
		n, k := int(nn), int(kk%9)+1
		next := 0
		for i, sp := range Spans(n, k) {
			size := sp[1] - sp[0]
			if sp[0] != next || size < n/k || size > n/k+1 || (size > n/k) != (i < n%k) {
				return false
			}
			next = sp[1]
		}
		return next == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestShuffledIsPermutation(t *testing.T) {
	s := GenerateSynth(smallCfg())
	perm := s.Train.Shuffled(7, 3)
	seen := make([]bool, s.Train.Len())
	for _, i := range perm {
		if seen[i] {
			t.Fatal("duplicate index in shuffle")
		}
		seen[i] = true
	}
	// Different epochs give different permutations.
	perm2 := s.Train.Shuffled(7, 4)
	same := true
	for i := range perm {
		if perm[i] != perm2[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("epoch shuffles identical")
	}
	// Same epoch, same seed → identical (workers stay in lockstep).
	perm3 := s.Train.Shuffled(7, 3)
	for i := range perm {
		if perm[i] != perm3[i] {
			t.Fatal("shuffle not deterministic")
		}
	}
}

func TestBatches(t *testing.T) {
	perm := []int{0, 1, 2, 3, 4, 5, 6}
	bs := Batches(perm, 3)
	if len(bs) != 2 {
		t.Fatalf("got %d batches, want 2 (short tail dropped)", len(bs))
	}
	if bs[1][2] != 5 {
		t.Fatalf("batch contents wrong: %v", bs)
	}
}

func TestAugmenterIdentityWhenDisabled(t *testing.T) {
	r := rng.New(1)
	x := tensor.RandNormal(r, 1, 2, 3, 8, 8)
	orig := x.Clone()
	NewAugmenter(0, false, rng.New(2)).Apply(x)
	for i := range x.Data {
		if x.Data[i] != orig.Data[i] {
			t.Fatal("disabled augmenter modified data")
		}
	}
}

func TestAugmenterPreservesShapeAndEnergy(t *testing.T) {
	r := rng.New(3)
	x := tensor.RandNormal(r, 1, 4, 3, 10, 10)
	orig := x.Clone()
	NewAugmenter(2, true, rng.New(4)).Apply(x)
	if !x.SameShape(orig) {
		t.Fatal("augmenter changed shape")
	}
	// Translation can only drop pixels (zero padding), never add energy.
	if x.Norm2() > orig.Norm2()+1e-3 {
		t.Fatalf("augmenter increased energy: %v > %v", x.Norm2(), orig.Norm2())
	}
}

func TestAugmenterFlipOnlyIsLossless(t *testing.T) {
	r := rng.New(5)
	x := tensor.RandNormal(r, 1, 8, 1, 6, 6)
	norm := x.Norm2()
	NewAugmenter(0, true, rng.New(6)).Apply(x)
	if math.Abs(x.Norm2()-norm) > 1e-4 {
		t.Fatal("pure flips must preserve norm")
	}
}

func TestSubset(t *testing.T) {
	s := GenerateSynth(smallCfg())
	sub, err := s.Train.Subset([]int{0, 2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 4 || sub.Classes != 4 {
		t.Fatalf("subset len %d classes %d", sub.Len(), sub.Classes)
	}
}
