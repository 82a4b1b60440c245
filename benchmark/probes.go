package main

import (
	"bytes"
	"runtime"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/kernel"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// sample calls f once untimed, then reps times timed, and returns seconds
// per call. A call shorter than 2 ms is repeated inside each sample until
// the sample is that long, so the clock's grain does not show.
func sample(reps int, f func()) []float64 {
	f()
	t0 := time.Now()
	f()
	inner := 1
	if d := time.Since(t0); d < 2*time.Millisecond {
		inner = int(2*time.Millisecond/(d+1)) + 1
	}
	out := make([]float64, reps)
	for r := range out {
		t0 := time.Now()
		for i := 0; i < inner; i++ {
			f()
		}
		out[r] = time.Since(t0).Seconds() / float64(inner)
	}
	return out
}

// timeMS is the median wall of f in milliseconds.
func timeMS(reps int, f func()) metric {
	xs := sample(reps, f)
	for i := range xs {
		xs[i] *= 1e3
	}
	return median(xs, "ms")
}

// rate is the median of work/seconds over the samples of f, in unit.
func rate(reps int, work float64, unit string, f func()) metric {
	xs := sample(reps, f)
	for i := range xs {
		xs[i] = work / xs[i]
	}
	return median(xs, unit)
}

func randTensor(r *rng.Rand, shape ...int) *tensor.Tensor {
	return tensor.RandNormal(r, 1, shape...)
}

// layerKind files a layer under the issue's five kinds.
func layerKind(l nn.Layer) string {
	switch l.(type) {
	case *nn.Conv2D, *nn.GroupedConv2D:
		return "conv"
	case *nn.Linear:
		return "linear"
	case *nn.BatchNorm, *nn.LRN:
		return "norm"
	case *nn.MaxPool2D, *nn.GlobalAvgPool2D, *nn.AvgPool2D:
		return "pool"
	}
	return "other"
}

// gemmShape is one C[m,n] = A[m,k]·op(B) product; transB is the
// linear-layer form y = x·Wᵀ.
type gemmShape struct {
	m, k, n int
	transB  bool
}

// dominantShapes walks the network with one image and returns the GEMM of
// the layer with the most multiply-accumulates per image (a conv layer's
// per-image product, or a linear layer's over rows batch rows) and the
// im2col geometry of the conv layer with the largest column matrix. A model
// without conv layers gets the 3×3/1/1 geometry of its input image.
func dominantShapes(net *nn.Network, image *tensor.Tensor, rows int) (gemmShape, tensor.ConvGeom) {
	var g gemmShape
	geomOf := func(c *nn.Conv2D, x *tensor.Tensor) tensor.ConvGeom {
		return tensor.ConvGeom{InC: c.InC, InH: x.Shape[2], InW: x.Shape[3], KH: c.KH, KW: c.KW,
			StrideH: c.StrideH, StrideW: c.StrideW, PadH: c.PadH, PadW: c.PadW}
	}
	cg := tensor.ConvGeom{InC: image.Shape[1], InH: image.Shape[2], InW: image.Shape[3],
		KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	var bestMACs, bestCol int
	x := image
	for _, l := range net.Layers {
		y := l.Forward(x, false)
		switch l := l.(type) {
		case *nn.Conv2D:
			k, spatial := l.InC*l.KH*l.KW, y.Shape[2]*y.Shape[3]
			if macs := l.OutC * k * spatial; macs > bestMACs {
				bestMACs, g = macs, gemmShape{m: l.OutC, k: k, n: spatial}
			}
			if k*spatial > bestCol {
				bestCol, cg = k*spatial, geomOf(l, x)
			}
		case *nn.Linear:
			if macs := l.In * l.Out; macs > bestMACs {
				bestMACs, g = macs, gemmShape{m: rows, k: l.In, n: l.Out, transB: true}
			}
		}
		x = y
	}
	return g, cg
}

// probes times stand-alone calls into each package's public functions at
// the shapes and sizes of the workload's own model: one replica at the
// workload's precision and per-replica batch, the GEMM and im2col of its
// heaviest layers, and reduce, codec, optimizer, checkpoint and input
// pipeline at its parameter count and batch. The loops' own spans say where
// a step went; these say how fast each layer is on its own.
func probes(w workload, ds *data.Synth, seed uint64) map[string]metric {
	out := map[string]metric{}
	reps := w.effort().probeReps
	r := rng.New(seed ^ 0x70726f6265)
	images, batch, gatherH, gatherW := ds.Train, w.train.Batch, w.micro.InH, w.micro.InW
	rows := batch / max(w.train.Workers, 1)
	if w.serving {
		images, batch, rows = ds.Test, w.pool.MaxBatch, w.pool.MaxBatch
	} else if rs := w.train.Resolutions; rs != nil {
		gatherH, gatherW = rs.At(0)
	}
	idx := make([]int, batch)
	for i := range idx {
		idx[i] = i
	}

	// models, nn: one replica, workload precision, native resolution.
	net := w.model(seed)
	net.SetPrecision(w.precision)
	nparams := net.NumParams()
	out["models.params"] = value(float64(nparams), "count")
	out["models.train_flops_per_img"] = value(3*2*float64(w.macs(w.micro, w.micro.InH, w.micro.InW)), "flop")

	x, labels := images.MustGather(idx[:rows])
	loss := &nn.SoftmaxCrossEntropy{}
	var fwd, lossMS, bwd []float64
	kinds := map[string][]float64{}
	for rep := -1; rep < reps; rep++ { // rep -1 is the untimed warm-up
		perKind := map[string]float64{}
		var f, b float64
		net.ZeroGrad()
		act := x
		for _, l := range net.Layers {
			t0 := time.Now()
			act = l.Forward(act, true)
			d := ms(time.Since(t0))
			f += d
			perKind[layerKind(l)] += d
		}
		t0 := time.Now()
		loss.Forward(act, labels)
		dout := loss.Backward()
		lms := ms(time.Since(t0))
		for i := len(net.Layers) - 1; i >= 0; i-- {
			t0 := time.Now()
			dout = net.Layers[i].Backward(dout)
			d := ms(time.Since(t0))
			b += d
			perKind[layerKind(net.Layers[i])] += d
		}
		if rep < 0 {
			continue
		}
		fwd, lossMS, bwd = append(fwd, f), append(lossMS, lms), append(bwd, b)
		for k, v := range perKind {
			kinds[k] = append(kinds[k], v)
		}
	}
	out["nn.fwd_ms_p50"] = median(fwd, "ms")
	out["nn.loss_ms_p50"] = median(lossMS, "ms")
	out["nn.bwd_ms_p50"] = median(bwd, "ms")
	for k, v := range kinds {
		out["nn."+k+"_ms"] = median(v, "ms")
	}

	x16, _ := images.MustGather(idx[:min(16, len(idx))])
	x1, _ := images.MustGather(idx[:1])
	out["nn.eval_fwd_ms_b1"] = timeMS(reps, func() { net.Forward(x1, false) })
	out["nn.eval_fwd_ms_b16"] = timeMS(reps, func() { net.Forward(x16, false) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		net.Forward(x16, false)
	}
	runtime.ReadMemStats(&after)
	out["nn.fwd_alloc_kb"] = value(float64(after.TotalAlloc-before.TotalAlloc)/float64(reps)/1024, "KB")
	out["nn.fwd_allocs"] = value(float64(after.Mallocs-before.Mallocs)/float64(reps), "count")

	// tensor, par, kernel: the heaviest layer's GEMM and im2col.
	g, cg := dominantShapes(net, x1, rows)
	a, c := randTensor(r, g.m, g.k), tensor.New(g.m, g.n)
	b := randTensor(r, g.k, g.n)
	if g.transB {
		b = randTensor(r, g.n, g.k)
	}
	ah, bh := tensor.NewHalf(), tensor.NewHalf()
	tensor.PackHalf(ah, a)
	tensor.PackHalf(bh, b)
	gflop := 2 * float64(g.m) * float64(g.k) * float64(g.n) / 1e9
	serial32, serial16 := kernel.GemmNN, kernel.GemmNNHalf
	if g.transB {
		serial32, serial16 = kernel.GemmNT, kernel.GemmNTHalf
	}
	out["tensor.gemm_f32_gflops"] = rate(reps, gflop, "GFLOP/s", func() { tensor.Gemm(false, g.transB, 1, a, b, 0, c) })
	out["tensor.gemm_f16_gflops"] = rate(reps, gflop, "GFLOP/s", func() { tensor.GemmHalf(false, g.transB, 1, ah, bh, 0, c) })
	out["kernel.gemm_f32_gflops"] = rate(reps, gflop, "GFLOP/s", func() { serial32(g.m, g.n, g.k, 1, a.Data, b.Data, 0, c.Data) })
	out["kernel.gemm_f16_gflops"] = rate(reps, gflop, "GFLOP/s", func() { serial16(g.m, g.n, g.k, 1, ah.Data, bh.Data, 0, c.Data) })
	out["par.gemm_speedup"] = value(out["tensor.gemm_f32_gflops"].Value/out["kernel.gemm_f32_gflops"].Value, "x")
	out["tensor.packhalf_gbps"] = rate(reps, 4*float64(b.Numel())/1e9, "GB/s", func() { tensor.PackHalf(bh, b) })

	src := randTensor(r, cg.InC, cg.InH, cg.InW)
	col := make([]float32, cg.InC*cg.KH*cg.KW*cg.OutH()*cg.OutW())
	out["tensor.im2col_gbps"] = rate(reps, 4*float64(len(col))/1e9, "GB/s", func() { tensor.Im2Col(cg, src.Data, col) })

	// kernel, compress, dist: reduce and codec at the model's size.
	grad := [][]float32{randTensor(r, nparams).Data, randTensor(r, nparams).Data}
	dst, half := make([]float32, nparams), make([]uint16, nparams)
	gb := 4 * float64(nparams) / 1e9
	out["kernel.reduce_gbps"] = rate(reps, 2*gb, "GB/s", func() { kernel.CanonicalAccumulate(dst, grad, []float64{0.5, 0.5}) })
	out["kernel.half_encode_gbps"] = rate(reps, gb, "GB/s", func() { kernel.EncodeHalf(half, grad[0]) })
	out["kernel.half_decode_gbps"] = rate(reps, gb, "GB/s", func() { kernel.DecodeHalf(dst, half) })
	out["compress.fp16_encode_gbps"] = rate(reps, gb, "GB/s", func() { compress.EncodeFP16(grad[0], half) })
	out["compress.fp16_decode_gbps"] = rate(reps, gb, "GB/s", func() { compress.DecodeFP16(half, dst) })
	// Zero buffers: Reduce sums in place, and zeros stay finite under any
	// number of repeated sums while the adds cost the same.
	bufs := [][]float32{make([]float32, nparams), make([]float32, nparams)}
	out["dist.allreduce_ms"] = timeMS(reps, func() {
		dist.Reduce(dist.Ring, bufs, nil)
		dist.Broadcast(dist.Ring, bufs, nil)
	})
	plane, small := src.Data[:cg.InH*cg.InW], make([]float32, (cg.InH/2)*(cg.InW/2))
	out["kernel.resize_mpix_per_s"] = rate(reps, float64(len(plane))/1e6, "Mpix/s", func() {
		kernel.ResizePlane(small, cg.InH/2, cg.InW/2, plane, cg.InH, cg.InW)
	})

	// opt: one LARS step and one loss-scaler pass over the model's
	// parameters. The scaler divides the gradients in place, so they are
	// reset to one between samples, outside the timed call.
	params := net.Params()
	lars := opt.NewLARS(params, opt.LARSConfig{Momentum: 0.9, WeightDecay: 0.0005, Trust: 0.05})
	for _, p := range params {
		p.G.FillNormal(r, 0, 0.01)
	}
	out["opt.step_ms_p50"] = timeMS(reps, func() { lars.Step(1e-6) })
	scaler := opt.NewLossScaler(0, 0)
	scalerMS := make([]float64, reps)
	for i := range scalerMS {
		for _, p := range params {
			p.G.Fill(1)
		}
		t0 := time.Now()
		scaler.Update(params)
		scalerMS[i] = ms(time.Since(t0))
	}
	out["opt.scaler_ms_p50"] = median(scalerMS, "ms")

	// checkpoint: the train→serve handoff of this model through memory.
	var buf bytes.Buffer
	out["checkpoint.write_ms"] = timeMS(reps, func() {
		buf.Reset()
		if err := checkpoint.FromNetwork(net, 0).Write(&buf); err != nil {
			panic(err)
		}
	})
	var ckpt *checkpoint.Checkpoint
	out["checkpoint.read_ms"] = timeMS(reps, func() {
		var err error
		if ckpt, err = checkpoint.Read(bytes.NewReader(buf.Bytes())); err != nil {
			panic(err)
		}
	})
	out["checkpoint.apply_ms"] = timeMS(reps, func() {
		if err := ckpt.ApplyToNetwork(net); err != nil {
			panic(err)
		}
	})

	// data: one batch through gather (at the first epoch's resolution, so
	// the resize kernel is in it when the workload has a schedule), the
	// augmenter, and one epoch's shuffle.
	aug := data.NewAugmenter(2, true, r.Split())
	var xb *tensor.Tensor
	out["data.gather_ms_p50"] = timeMS(reps, func() {
		var err error
		if xb, _, err = images.GatherAt(idx, gatherH, gatherW); err != nil {
			panic(err)
		}
	})
	out["data.augment_ms_p50"] = timeMS(reps, func() { aug.Apply(xb) })
	out["data.shuffle_ms"] = timeMS(reps, func() { images.Shuffled(seed, 0) })
	return out
}
