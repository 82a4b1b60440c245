package serve

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Pool couples the scheduler to a fleet of real model replicas: Run
// simulates the batching schedule on the virtual clock, then executes every
// dispatched batch's forward pass (train=false) on its assigned replica and
// returns per-request argmax predictions. All replicas carry identical
// weights, and because every layer's inference path is per-sample
// independent (BatchNorm uses running statistics in eval mode; the GEMM
// kernels fix each output row's accumulation order), a request's prediction
// is bit-identical whichever batch or replica it lands on — dynamic
// batching is invisible to clients.
type Pool struct {
	cfg      Config
	replicas []*nn.Network
	batch    tensor.Tensor // the input batch Run assembles, reused batch after batch
}

// NewPool builds cfg.Replicas replicas with the factory and copies replica
// 0's weights into the rest so the fleet is coherent even when the factory
// initializes randomly.
func NewPool(cfg Config, factory func() *nn.Network) (*Pool, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p := &Pool{cfg: cfg, replicas: make([]*nn.Network, cfg.Replicas)}
	for i := range p.replicas {
		p.replicas[i] = factory()
		if i > 0 {
			p.replicas[i].CopyWeightsFrom(p.replicas[0])
		}
	}
	return p, nil
}

// PoolFromCheckpoint builds the pool and loads the training checkpoint into
// every replica — the artifact handoff that closes the train→serve loop.
func PoolFromCheckpoint(cfg Config, factory func() *nn.Network, c *checkpoint.Checkpoint) (*Pool, error) {
	p, err := NewPool(cfg, factory)
	if err != nil {
		return nil, err
	}
	if err := c.ApplyToReplicas(p.replicas...); err != nil {
		return nil, err
	}
	return p, nil
}

// SetPrecision selects the storage precision of every replica's GEMM
// operands (f32 masters retained), mirroring nn.SetPrecision.
func (p *Pool) SetPrecision(prec tensor.Precision) {
	for _, r := range p.replicas {
		r.SetPrecision(prec)
	}
}

// Replica returns replica i (tests compare pool output against a direct
// forward on the same weights).
func (p *Pool) Replica(i int) *nn.Network { return p.replicas[i] }

// Size returns the replica count.
func (p *Pool) Size() int { return len(p.replicas) }

// Run schedules the trace, executes every batch's forward pass on its
// replica, and returns the report plus per-request predicted classes (-1
// for rejected requests). images is the row-indexed image set requests
// reference (dim 0 indexes images). Each batch is assembled in one input
// buffer the pool reuses, so like the replicas, a Pool serves one Run at a
// time.
func (p *Pool) Run(trace Trace, images *tensor.Tensor) (*Report, []int, error) {
	if images == nil || images.Dims() < 2 || images.Dim(0) == 0 {
		return nil, nil, fmt.Errorf("serve: images must have at least 2 dims and a nonzero dim 0")
	}
	rep, err := Simulate(p.cfg, trace)
	if err != nil {
		return nil, nil, err
	}
	preds := make([]int, len(trace.Requests))
	for i := range preds {
		preds[i] = -1
	}
	rowLen := images.Numel() / images.Dim(0)
	x := &p.batch
	for _, b := range rep.Batches {
		x.Shape = append(append(x.Shape[:0], len(b.Members)), images.Shape[1:]...)
		if n := len(b.Members) * rowLen; cap(x.Data) < n {
			x.Data = make([]float32, n)
		} else {
			x.Data = x.Data[:n]
		}
		for row, r := range b.Members {
			img := trace.Requests[r].Image
			if img < 0 || img >= images.Dim(0) {
				return nil, nil, fmt.Errorf("serve: request %d wants image %d of %d", r, img, images.Dim(0))
			}
			copy(x.Data[row*rowLen:(row+1)*rowLen], images.Data[img*rowLen:(img+1)*rowLen])
		}
		logits := p.replicas[b.Replica].Forward(x, false)
		classes := logits.Numel() / len(b.Members)
		for row, r := range b.Members {
			preds[r] = argmax(logits.Data[row*classes : (row+1)*classes])
		}
	}
	return rep, preds, nil
}

// argmax returns the index of the largest value, lowest index on ties —
// the same rule dist.EvalAccuracy applies.
func argmax(row []float32) int {
	best := 0
	for i := 1; i < len(row); i++ {
		if row[i] > row[best] {
			best = i
		}
	}
	return best
}
