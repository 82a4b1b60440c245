package nn

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

func TestSoftmaxCrossEntropyUniform(t *testing.T) {
	var l SoftmaxCrossEntropy
	logits := tensor.New(2, 4) // all-zero logits → uniform softmax
	loss := l.Forward(logits, []int{0, 3})
	want := math.Log(4)
	if math.Abs(loss-want) > 1e-6 {
		t.Fatalf("uniform loss = %v, want ln(4) = %v", loss, want)
	}
	for _, p := range l.probs.Data {
		if math.Abs(float64(p)-0.25) > 1e-6 {
			t.Fatalf("uniform prob = %v", p)
		}
	}
}

func TestSoftmaxCrossEntropyPerfectPrediction(t *testing.T) {
	var l SoftmaxCrossEntropy
	logits := tensor.FromSlice([]float32{100, 0, 0}, 1, 3)
	loss := l.Forward(logits, []int{0})
	if loss > 1e-6 {
		t.Fatalf("confident correct prediction should have ~0 loss, got %v", loss)
	}
}

func TestSoftmaxGradientSumsToZero(t *testing.T) {
	var l SoftmaxCrossEntropy
	r := rng.New(1)
	logits := tensor.RandNormal(r, 1, 4, 6)
	l.Forward(logits, []int{0, 1, 2, 3})
	grad := l.Backward()
	// Each row of (softmax − onehot)/N sums to zero.
	for s := 0; s < 4; s++ {
		var sum float64
		for j := 0; j < 6; j++ {
			sum += float64(grad.Data[s*6+j])
		}
		if math.Abs(sum) > 1e-6 {
			t.Fatalf("row %d gradient sums to %v", s, sum)
		}
	}
}

func TestSoftmaxGradientNumeric(t *testing.T) {
	var l SoftmaxCrossEntropy
	r := rng.New(2)
	logits := tensor.RandNormal(r, 1, 3, 5)
	labels := []int{4, 0, 2}
	l.Forward(logits, labels)
	grad := l.Backward()
	const h = 1e-3
	for i := 0; i < logits.Numel(); i++ {
		orig := logits.Data[i]
		logits.Data[i] = orig + h
		lp := l.Forward(logits, labels)
		logits.Data[i] = orig - h
		lm := l.Forward(logits, labels)
		logits.Data[i] = orig
		numeric := (lp - lm) / (2 * h)
		if math.Abs(numeric-float64(grad.Data[i])) > 1e-3 {
			t.Fatalf("logit grad[%d]: analytic %v vs numeric %v", i, grad.Data[i], numeric)
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	var l SoftmaxCrossEntropy
	logits := tensor.FromSlice([]float32{1e4, -1e4, 0}, 1, 3)
	loss := l.Forward(logits, []int{0})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss overflowed: %v", loss)
	}
	if loss > 1e-6 {
		t.Fatalf("extreme confident prediction should have ~0 loss, got %v", loss)
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float32{
		1, 9, 0, // pred 1
		7, 2, 3, // pred 0
		0, 1, 5, // pred 2
		4, 3, 2, // pred 0
	}, 4, 3)
	acc := Accuracy(logits, []int{1, 0, 0, 1})
	if acc != 0.5 {
		t.Fatalf("accuracy = %v, want 0.5", acc)
	}
}

func TestLabelOutOfRangePanics(t *testing.T) {
	defer expectPanic(t, "label out of range")
	var l SoftmaxCrossEntropy
	l.Forward(tensor.New(1, 3), []int{7})
}
