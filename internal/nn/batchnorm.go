package nn

import (
	"fmt"
	"math"

	"repro/internal/kernel"
	"repro/internal/par"
	"repro/internal/tensor"
)

// BatchNorm normalizes activations per channel over the batch (and spatial
// positions for NCHW inputs), then applies a learned affine transform
// y = γ·x̂ + β.
//
// The paper's 32K-batch AlexNet result specifically requires replacing the
// original local response normalization with BatchNorm ("AlexNet-BN",
// Ginsburg's refit): BN keeps activations well-scaled when the per-step
// learning rate is large, which is what makes the LARS trust ratio
// meaningful at extreme batch sizes.
type BatchNorm struct {
	name     string
	C        int
	Eps      float32
	Momentum float32 // running-average retention, typically 0.9

	Gamma, Beta *Param
	// RunningMean and RunningVar are the inference-time statistics.
	RunningMean, RunningVar *tensor.Tensor

	// cached between Forward(train=true) and Backward; xhat is nil after
	// an eval Forward and after Backward
	xhat    *tensor.Tensor
	invStd  []float32
	inShape []int
	spatial bool

	// Slots: x̂'s storage, and the per-sample segment sums a training
	// Forward reduces (Σx, Σx² per channel and sample) and Backward reuses
	// (Σdy, Σdy·x̂), each channel's n at c·n.
	xhatBuf    tensor.Tensor
	segA, segB []float32
	acts       acts
}

// NewBatchNorm builds a batch-norm layer over c channels.
func NewBatchNorm(name string, c int) *BatchNorm {
	bn := &BatchNorm{
		name: name, C: c, Eps: 1e-5, Momentum: 0.9,
		Gamma:       NewParam(name+".gamma", c),
		Beta:        NewParam(name+".beta", c),
		RunningMean: tensor.New(c),
		RunningVar:  tensor.New(c),
	}
	bn.Gamma.W.Fill(1)
	bn.RunningVar.Fill(1)
	bn.Gamma.NoDecay = true
	bn.Beta.NoDecay = true
	return bn
}

// Name implements Layer.
func (l *BatchNorm) Name() string { return l.name }

// Params implements Layer.
func (l *BatchNorm) Params() []*Param { return []*Param{l.Gamma, l.Beta} }

// channelLayout returns x's batch size n and the length of one channel's
// contiguous segment per sample, area (1 for [N, C], H·W for
// [N, C, H, W]); x must be one of the two with C == l.C. Channel c of
// sample s is x.Data[s·C·area + c·area :][:area].
func (l *BatchNorm) channelLayout(x *tensor.Tensor) (n, area int) {
	switch x.Dims() {
	case 2:
		if x.Shape[1] != l.C {
			panic(fmt.Sprintf("nn: %s: input %v, want C=%d", l.name, x.Shape, l.C))
		}
		return x.Shape[0], 1
	case 4:
		if x.Shape[1] != l.C {
			panic(fmt.Sprintf("nn: %s: input %v, want C=%d", l.name, x.Shape, l.C))
		}
		return x.Shape[0], x.Shape[2] * x.Shape[3]
	default:
		panic(fmt.Sprintf("nn: %s: want 2-D or 4-D input, got %v", l.name, x.Shape))
	}
}

// Forward implements Layer. An eval Forward normalizes with the running
// statistics and records nothing for Backward.
func (l *BatchNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, area := l.channelLayout(x)
	y := l.acts.out(train, x.Shape...)
	l.xhat = nil
	var xhat, segA, segB []float32
	if train {
		l.inShape = append(l.inShape[:0], x.Shape...)
		l.spatial = x.Dims() == 4
		grow(&l.invStd, l.C)
		l.xhat = shaped(&l.xhatBuf, x.Shape...)
		xhat = l.xhat.Data
		segA, segB = grow(&l.segA, l.C*n), grow(&l.segB, l.C*n)
	}

	count := float64(n * area)
	stride := l.C * area
	xd, yd := x.Data, y.Data
	gd, bd := l.Gamma.W.Data, l.Beta.W.Data

	par.ForGrain(l.C, channelGrain(n*area), func(clo, chi int) {
		// Per-channel statistics reduce through the fixed-tree kernel sums:
		// each sample's contiguous segment collapses first (its sum and its
		// sum of squares in one pass), then the per-sample partials collapse
		// pairwise over the batch — one reduction discipline shared with the
		// rest of the train path, and a pure function of (channel data, n),
		// independent of chunking.
		for c := clo; c < chi; c++ {
			var mean, variance float64
			if train {
				segSum, segSq := segA[c*n:(c+1)*n], segB[c*n:(c+1)*n]
				for s := 0; s < n; s++ {
					base := s*stride + c*area
					segSum[s], segSq[s] = kernel.PairwiseSumAndSq(xd[base : base+area])
				}
				mean = float64(kernel.PairwiseSum(segSum)) / count
				variance = float64(kernel.PairwiseSum(segSq))/count - float64(mean*mean)
				if variance < 0 {
					variance = 0
				}
				// Update running statistics (safe: one goroutine per channel).
				m := float64(l.Momentum)
				l.RunningMean.Data[c] = float32(float64(m*float64(l.RunningMean.Data[c])) + float64((1-m)*mean))
				l.RunningVar.Data[c] = float32(float64(m*float64(l.RunningVar.Data[c])) + float64((1-m)*variance))
			} else {
				mean = float64(l.RunningMean.Data[c])
				variance = float64(l.RunningVar.Data[c])
			}
			inv := float32(1 / math.Sqrt(variance+float64(l.Eps)))
			mu := float32(mean)
			for s := 0; s < n; s++ {
				base := s*stride + c*area
				var hs []float32
				if train {
					hs = xhat[base : base+area]
				}
				kernel.Normalize(yd[base:base+area], hs, xd[base:base+area], mu, inv, gd[c], bd[c])
			}
			if train {
				l.invStd[c] = inv
			}
		}
	})
	return y
}

// Backward implements Layer. Uses the standard batch-norm gradient:
//
//	dx̂ = dy·γ
//	dx = invStd/M · (M·dx̂ − Σdx̂ − x̂·Σ(dx̂·x̂))
//
// where M is the per-channel element count.
func (l *BatchNorm) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if l.xhat == nil {
		panic(fmt.Sprintf("nn: %s: Backward without a training Forward", l.name))
	}
	n := l.inShape[0]
	area := 1
	if l.spatial {
		area = l.inShape[2] * l.inShape[3]
	}
	stride := l.C * area
	m := float32(n * area)
	dx := l.acts.dx(l.inShape...)
	dd, gd, xhat, dxd := dout.Data, l.Gamma.W.Data, l.xhat.Data, dx.Data
	dgd, dbd := l.Gamma.G.Data, l.Beta.G.Data
	segA, segB := l.segA, l.segB

	par.ForGrain(l.C, channelGrain(n*area), func(clo, chi int) {
		// Σdy and Σdy·x̂ per channel, in one pass per segment, through the
		// same two-level fixed-tree kernel reduction as the forward
		// statistics.
		for c := clo; c < chi; c++ {
			segDy, segDyXhat := segA[c*n:(c+1)*n], segB[c*n:(c+1)*n]
			for s := 0; s < n; s++ {
				base := s*stride + c*area
				segDy[s], segDyXhat[s] = kernel.PairwiseSumAndDot(dd[base:base+area], xhat[base:base+area])
			}
			sumDy := kernel.PairwiseSum(segDy)
			sumDyXhat := kernel.PairwiseSum(segDyXhat)
			dgd[c] += sumDyXhat
			dbd[c] += sumDy
			gi := gd[c] * l.invStd[c]
			meanDy := sumDy / m
			meanDyXhat := sumDyXhat / m
			for s := 0; s < n; s++ {
				base := s*stride + c*area
				kernel.NormalizeGrad(dxd[base:base+area], dd[base:base+area], xhat[base:base+area], gi, meanDy, meanDyXhat)
			}
		}
	})
	l.xhat = nil
	return dx
}

// channelGrain is the grain of BatchNorm's channel loop, in channels of
// perChannel elements each: enough channels for par.MinParallel elements,
// as MaxPool2D sizes its grain of planes, so a small batch is not split
// channel by channel.
func channelGrain(perChannel int) int {
	perChannel = max(perChannel, 1)
	return (par.MinParallel + perChannel - 1) / perChannel
}
