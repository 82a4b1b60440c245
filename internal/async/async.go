// Package async implements the asynchronous parameter-server baseline the
// paper's Background section contrasts with synchronous SGD (Downpour-style
// first-come-first-serve updates; Dean et al. 2012, Recht et al. 2011).
//
// The paper's argument for synchronous SGD is stability: "The asynchronous
// methods using parameter server are not guaranteed to be stable on
// large-scale systems" (citing Chen et al. 2016). This package makes that
// claim testable. Workers compute real gradients against a snapshot of the
// server weights taken at dispatch time; by the time a gradient is applied,
// the server has moved on, so the update is stale by roughly P−1 versions —
// the classic gradient-staleness model, with the momentum interaction of
// Mitliagkas et al. 2016 emerging naturally.
//
// Workers are regular: each gradient takes the same time, so they finish in
// the order they were dispatched and the server applies them round-robin —
// update v applies worker v mod P's gradient, computed P−1 updates earlier
// (fewer for the first P). The simulation is a plain loop over updates and
// exactly reproducible, unlike wall-clock async training, but with
// identical update dynamics.
package async

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
)

// Config configures one asynchronous run.
type Config struct {
	// Model builds one worker replica (same contract as core.Config.Model).
	Model func(seed uint64) *nn.Network

	Workers int
	// Batch is the per-worker batch size: each push to the server is a
	// gradient over this many examples (Downpour semantics — there is no
	// global batch).
	Batch int
	// Updates is the total number of server updates. Comparisons against
	// synchronous SGD hold Updates × Batch (examples touched) fixed.
	Updates int

	BaseLR    float64
	PolyPower float64
	Momentum  float64

	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.Batch == 0 {
		c.Batch = 32
	}
	if c.Updates == 0 {
		c.Updates = 100
	}
	if c.BaseLR == 0 {
		c.BaseLR = 0.05
	}
	if c.PolyPower == 0 {
		c.PolyPower = 2
	}
	if c.Momentum == 0 {
		c.Momentum = 0.9
	}
	return c
}

// Result summarizes an asynchronous run.
type Result struct {
	TestAcc       float64
	FinalLoss     float64
	MeanStaleness float64
	MaxStaleness  int
	Diverged      bool
	Updates       int
}

// Train runs Downpour-style asynchronous SGD and returns the result.
func Train(cfg Config, ds *data.Synth) (*Result, error) {
	cfg = cfg.withDefaults()
	switch {
	case cfg.Model == nil:
		return nil, errors.New("async: Config.Model is required")
	case cfg.Workers < 0:
		return nil, fmt.Errorf("async: Config.Workers = %d is negative", cfg.Workers)
	case cfg.Batch < 0:
		return nil, fmt.Errorf("async: Config.Batch = %d is negative", cfg.Batch)
	case ds.Train.Len() == 0:
		return nil, errors.New("async: empty training set")
	}
	server := cfg.Model(cfg.Seed)
	serverParams := server.Params()
	optimizer := opt.NewSGD(serverParams, opt.SGDConfig{Momentum: cfg.Momentum})
	sched := opt.Poly{Base: cfg.BaseLR, Power: cfg.PolyPower}

	type workerState struct {
		replica *nn.Network
		loss    nn.SoftmaxCrossEntropy
		// grads holds the flattened gradient awaiting application.
		grads [][]float32
		// version is the server version the in-flight gradient was
		// computed against.
		version int
		sampler *rng.Rand
	}

	workers := make([]*workerState, cfg.Workers)
	for i := range workers {
		rep := cfg.Model(cfg.Seed + uint64(i)*104729)
		rep.CopyWeightsFrom(server)
		ws := &workerState{replica: rep, sampler: rng.New(cfg.Seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15)}
		for _, p := range rep.Params() {
			ws.grads = append(ws.grads, make([]float32, p.Numel()))
		}
		workers[i] = ws
	}

	res := &Result{}
	var serverVersion int
	var stalenessSum float64

	compute := func(w *workerState) {
		// Pull: snapshot current server weights.
		w.replica.CopyWeightsFrom(server)
		w.version = serverVersion
		// Draw a batch uniformly from the worker's view of the data.
		idx := make([]int, cfg.Batch)
		for j := range idx {
			idx[j] = w.sampler.Intn(ds.Train.Len())
		}
		x, labels := ds.Train.MustGather(idx)
		w.replica.ZeroGrad()
		logits := w.replica.Forward(x, true)
		loss := w.loss.Forward(logits, labels)
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			res.Diverged = true
		}
		res.FinalLoss = loss
		w.replica.BackwardParams(w.loss.Backward())
		for pi, p := range w.replica.Params() {
			copy(w.grads[pi], p.G.Data)
		}
	}
	for _, w := range workers {
		compute(w)
	}

	for serverVersion < cfg.Updates && !res.Diverged {
		w := workers[serverVersion%cfg.Workers]
		// Push: apply the (stale) gradient at the current schedule rate.
		staleness := serverVersion - w.version
		stalenessSum += float64(staleness)
		res.MaxStaleness = max(res.MaxStaleness, staleness)
		for pi, p := range serverParams {
			copy(p.G.Data, w.grads[pi])
		}
		optimizer.Step(sched.LR(serverVersion, cfg.Updates))
		serverVersion++
		if serverVersion >= cfg.Updates {
			break
		}
		compute(w)
	}
	res.Updates = serverVersion
	if serverVersion > 0 {
		res.MeanStaleness = stalenessSum / float64(serverVersion)
	}
	// Recalibrate batch-norm running statistics before evaluating: the
	// server's weights were only ever written by optimizer pushes, so its
	// normalization statistics never saw data (workers keep theirs local,
	// as in real parameter-server systems). A short forward-only pass over
	// training batches fixes inference without touching the weights.
	calRNG := rng.New(cfg.Seed ^ 0x0badcafe)
	for i := 0; i < 12 && !res.Diverged; i++ {
		size := 2 * cfg.Batch
		if size > ds.Train.Len() {
			size = ds.Train.Len()
		}
		idx := make([]int, size)
		for j := range idx {
			idx[j] = calRNG.Intn(ds.Train.Len())
		}
		x, _ := ds.Train.MustGather(idx)
		server.Forward(x, true)
	}
	// Final evaluation on the server weights.
	res.TestAcc = evalAccuracy(server, ds)
	return res, nil
}

func evalAccuracy(net *nn.Network, ds *data.Synth) float64 {
	n := ds.Test.Len()
	correct := 0
	const chunk = 256
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		idx := make([]int, hi-lo)
		for i := range idx {
			idx[i] = lo + i
		}
		x, labels := ds.Test.MustGather(idx)
		logits := net.Forward(x, false)
		preds := logits.ArgMaxRows()
		for i, p := range preds {
			if p == labels[i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(n)
}
