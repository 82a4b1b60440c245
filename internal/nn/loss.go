package nn

import (
	"fmt"
	"math"

	"repro/internal/par"
	"repro/internal/tensor"
)

// SoftmaxCrossEntropy combines a softmax over class logits with the negative
// log-likelihood loss, averaged over the batch. Combining the two yields the
// numerically stable gradient (softmax(x) − onehot) / N.
type SoftmaxCrossEntropy struct {
	probs  *tensor.Tensor
	labels []int
}

// Forward computes the mean cross-entropy of logits [N, K] against labels
// (len N, values in [0, K)). It caches what Backward needs.
func (l *SoftmaxCrossEntropy) Forward(logits *tensor.Tensor, labels []int) float64 {
	if logits.Dims() != 2 {
		panic(fmt.Sprintf("nn: loss wants [N,K] logits, got %v", logits.Shape))
	}
	n, k := logits.Shape[0], logits.Shape[1]
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d labels for %d logits rows", len(labels), n))
	}
	l.probs = tensor.New(n, k)
	l.labels = labels
	losses := make([]float64, n)
	par.ForGrain(n, 16, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			row := logits.Data[s*k : (s+1)*k]
			out := l.probs.Data[s*k : (s+1)*k]
			maxV := row[0]
			for _, v := range row[1:] {
				if v > maxV {
					maxV = v
				}
			}
			var sum float64
			for i, v := range row {
				e := math.Exp(float64(v - maxV))
				out[i] = float32(e)
				sum += e
			}
			inv := 1 / sum
			for i := range out {
				out[i] = float32(float64(out[i]) * inv)
			}
			lab := labels[s]
			if lab < 0 || lab >= k {
				panic(fmt.Sprintf("nn: label %d out of range [0,%d)", lab, k))
			}
			p := float64(out[lab])
			if p < 1e-12 {
				p = 1e-12
			}
			losses[s] = -math.Log(p)
		}
	})
	var total float64
	for _, v := range losses {
		total += v
	}
	return total / float64(n)
}

// Backward returns the gradient of the mean loss w.r.t. the logits.
func (l *SoftmaxCrossEntropy) Backward() *tensor.Tensor {
	n, k := l.probs.Shape[0], l.probs.Shape[1]
	grad := l.probs.Clone()
	invN := 1 / float32(n)
	for s := 0; s < n; s++ {
		row := grad.Data[s*k : (s+1)*k]
		row[l.labels[s]] -= 1
		for i := range row {
			row[i] *= invN
		}
	}
	return grad
}

// Accuracy returns the fraction of rows of logits whose argmax matches the
// label — the paper's "top-1 accuracy".
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	preds := logits.ArgMaxRows()
	if len(preds) != len(labels) {
		panic(fmt.Sprintf("nn: %d predictions vs %d labels", len(preds), len(labels)))
	}
	correct := 0
	for i, p := range preds {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}
