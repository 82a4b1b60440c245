package main

import (
	"fmt"
	"time"

	"repro/internal/serve"
	"repro/internal/tensor"
)

// serveMirror is what one run of the mirrored batch loop produced.
type serveMirror struct {
	report *serve.Report
	preds  []int
	wall   time.Duration // the window a caller of Pool.Run waits for
}

// mirrorServe is serve.Pool.Run's loop written out in the benchmark:
// schedule the trace on the virtual clock, then for every batch assemble the
// input tensor, run the assigned replica's eval-mode forward and scatter the
// per-row argmax — each under its own span. Its predictions must equal
// Pool.Run's, which is how the run check flags drift between the two.
func mirrorServe(pool *serve.Pool, cfg serve.Config, trace serve.Trace, images *tensor.Tensor, tr *tracer) (*serveMirror, error) {
	m := &serveMirror{}
	start := time.Now()
	root := tr.begin("serve.pool_run") // span 0 of a fresh tracer
	sp := tr.begin("serve.simulate")
	rep, err := serve.Simulate(cfg, trace)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	m.report = rep
	m.preds = make([]int, len(trace.Requests))
	for i := range m.preds {
		m.preds[i] = -1
	}
	rowLen := images.Numel() / images.Dim(0)
	for _, b := range rep.Batches {
		tr.nextStep()
		st := tr.begin("batch")

		sp := tr.begin("serve.assemble")
		x := tensor.New(append([]int{len(b.Members)}, images.Shape[1:]...)...)
		for row, r := range b.Members {
			img := trace.Requests[r].Image
			if img < 0 || img >= images.Dim(0) {
				return nil, fmt.Errorf("mirror: request %d wants image %d of %d", r, img, images.Dim(0))
			}
			copy(x.Data[row*rowLen:(row+1)*rowLen], images.Data[img*rowLen:(img+1)*rowLen])
		}
		tr.end(sp)

		sp = tr.begin("nn.forward")
		logits := pool.Replica(b.Replica).Forward(x, false)
		tr.end(sp)

		sp = tr.begin("serve.scatter")
		for row, class := range logits.Reshape(len(b.Members), -1).ArgMaxRows() {
			m.preds[b.Members[row]] = class
		}
		tr.end(sp)
		tr.end(st)
	}
	tr.end(root)
	m.wall = time.Since(start)
	return m, nil
}
