package dist_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
)

// testTask builds a tiny classification batch and an MLP replica factory.
func testTask(batch int) (*tensor.Tensor, []int, func(seed uint64) *nn.Network) {
	ds := data.GenerateSynth(data.SynthConfig{
		Classes: 4, TrainSize: 256, TestSize: 64,
		C: 3, H: 8, W: 8, Noise: 0.25, MaxShift: 1, Seed: 7,
	})
	idx := make([]int, batch)
	for i := range idx {
		idx[i] = i
	}
	x, labels := ds.Train.MustGather(idx)
	factory := func(seed uint64) *nn.Network {
		return models.NewMLP(models.MicroConfig{Classes: 4, InC: 3, InH: 8, InW: 8, Width: 4, Seed: seed})
	}
	return x, labels, factory
}

func newEngine(cfg dist.Config, workers int, factory func(uint64) *nn.Network) *dist.Engine {
	replicas := make([]*nn.Network, workers)
	for i := range replicas {
		replicas[i] = factory(1 + uint64(i)*7919)
	}
	return dist.NewEngine(cfg, replicas)
}

// addScaledGrads takes a toy optimizer step, W += alpha·G, on every parameter.
func addScaledGrads(params []*nn.Param, alpha float32) {
	for _, p := range params {
		for i, g := range p.G.Data {
			p.W.Data[i] += float32(alpha * g)
		}
	}
}

// flatGrad flattens the master's parameter gradients.
func flatGrad(e *dist.Engine) []float32 {
	var out []float32
	for _, p := range e.Master().Params() {
		out = append(out, p.G.Data...)
	}
	return out
}

// TestGradientIndependentOfWorkerCount is the engine's reproducibility
// contract: with the logical shard count pinned, the physical worker count
// does not change a single bit of the reduced gradient or the loss.
func TestGradientIndependentOfWorkerCount(t *testing.T) {
	x, labels, factory := testTask(64)
	const shards = 4
	var refGrad []float32
	var refLoss float64
	for _, workers := range []int{1, 2, 4} {
		e := newEngine(dist.Config{Algo: dist.Ring, Shards: shards}, workers, factory)
		loss, err := e.ComputeGradient(x, labels)
		if err != nil {
			t.Fatal(err)
		}
		grad := flatGrad(e)
		e.Close()
		if refGrad == nil {
			refGrad, refLoss = grad, loss
			continue
		}
		if loss != refLoss {
			t.Fatalf("W=%d: loss %v differs bitwise from W=1's %v", workers, loss, refLoss)
		}
		for i := range grad {
			if grad[i] != refGrad[i] {
				t.Fatalf("W=%d: grad coord %d = %v differs bitwise from W=1's %v", workers, i, grad[i], refGrad[i])
			}
		}
	}
}

// TestGradientIdenticalAcrossAlgorithms: topology choice is pure cost
// accounting; the reduced gradient is bitwise the same.
func TestGradientIdenticalAcrossAlgorithms(t *testing.T) {
	x, labels, factory := testTask(64)
	var ref []float32
	for _, algo := range algorithms {
		e := newEngine(dist.Config{Algo: algo}, 4, factory)
		if _, err := e.ComputeGradient(x, labels); err != nil {
			t.Fatal(err)
		}
		grad := flatGrad(e)
		e.Close()
		if ref == nil {
			ref = grad
			continue
		}
		for i := range grad {
			if grad[i] != ref[i] {
				t.Fatalf("%v: grad coord %d differs across algorithms", algo, i)
			}
		}
	}
}

// TestEngineMatchesDirectComputation: a single-worker, single-shard engine
// reduces to plain forward/backward on the master network.
func TestEngineMatchesDirectComputation(t *testing.T) {
	x, labels, factory := testTask(32)
	e := newEngine(dist.Config{}, 1, factory)
	defer e.Close()
	gotLoss, err := e.ComputeGradient(x, labels)
	if err != nil {
		t.Fatal(err)
	}
	got := flatGrad(e)

	net := factory(1)
	loss := &nn.SoftmaxCrossEntropy{}
	net.ZeroGrad()
	wantLoss := loss.Forward(net.Forward(x, true), labels)
	net.Backward(loss.Backward())
	var want []float32
	for _, p := range net.Params() {
		want = append(want, p.G.Data...)
	}
	if gotLoss != wantLoss {
		t.Fatalf("engine loss %v, direct %v", gotLoss, wantLoss)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grad coord %d: engine %v, direct %v", i, got[i], want[i])
		}
	}
}

// TestBucketingPreservesValuesAndScalesMessages: buckets multiply the
// collective count without touching the reduced values.
func TestBucketingPreservesValuesAndScalesMessages(t *testing.T) {
	x, labels, factory := testTask(64)
	whole := newEngine(dist.Config{Algo: dist.Tree}, 4, factory)
	if _, err := whole.ComputeGradient(x, labels); err != nil {
		t.Fatal(err)
	}
	wholeGrad := flatGrad(whole)
	wholeStep := whole.StepStats()
	whole.Close()

	n := len(wholeGrad)
	bucketed := newEngine(dist.Config{Algo: dist.Tree, BucketElems: n/3 + 1}, 4, factory)
	if _, err := bucketed.ComputeGradient(x, labels); err != nil {
		t.Fatal(err)
	}
	bGrad := flatGrad(bucketed)
	bStep := bucketed.StepStats()
	bucketed.Close()

	for i := range wholeGrad {
		if bGrad[i] != wholeGrad[i] {
			t.Fatalf("bucketing changed grad coord %d", i)
		}
	}
	if want := 3 * wholeStep.Messages; bStep.Messages != want {
		t.Fatalf("3 buckets moved %d messages, want %d", bStep.Messages, want)
	}
	if bStep.Bytes != wholeStep.Bytes {
		t.Fatalf("bucketing changed total bytes: %d vs %d", bStep.Bytes, wholeStep.Bytes)
	}
}

// TestStepStatsMatchExpected: one engine step's counters equal
// comm.ExpectedStats for the full gradient payload.
func TestStepStatsMatchExpected(t *testing.T) {
	x, labels, factory := testTask(64)
	payload := int64(4 * factory(1).NumParams())
	for _, algo := range algorithms {
		for _, workers := range []int{2, 3, 4, 8} {
			e := newEngine(dist.Config{Algo: algo}, workers, factory)
			if _, err := e.ComputeGradient(x, labels); err != nil {
				t.Fatal(err)
			}
			if err := e.BroadcastWeights(); err != nil {
				t.Fatal(err)
			}
			got := e.StepStats()
			e.Close()
			if want := comm.ExpectedStats(algo, workers, payload); got != want {
				t.Errorf("%v P=%d: step stats %+v, want %+v", algo, workers, got, want)
			}
		}
	}
}

// TestFaultInjectionRecoversDeterministically: a heavily faulty run must
// (a) be bitwise identical to a clean run in values, (b) record recovery
// traffic, and (c) reproduce its own stats exactly when repeated.
func TestFaultInjectionRecoversDeterministically(t *testing.T) {
	x, labels, factory := testTask(64)
	run := func(faults *dist.FaultPlan) ([]float32, float64, dist.CommStats) {
		e := newEngine(dist.Config{Algo: dist.Ring, Faults: faults}, 4, factory)
		defer e.Close()
		var loss float64
		var err error
		for step := 0; step < 5; step++ {
			loss, err = e.ComputeGradient(x, labels)
			if err != nil {
				t.Fatal(err)
			}
			// A toy update so successive steps see changed weights.
			addScaledGrads(e.Master().Params(), -0.05)
			if err := e.BroadcastWeights(); err != nil {
				t.Fatal(err)
			}
		}
		return flatGrad(e), loss, e.Stats()
	}
	cleanGrad, cleanLoss, cleanStats := run(nil)
	plan := &dist.FaultPlan{Seed: 9, DropRate: 0.5, StallRate: 0.5}
	faultGrad, faultLoss, faultStats := run(plan)
	if faultLoss != cleanLoss {
		t.Fatalf("faults changed the loss: %v vs %v", faultLoss, cleanLoss)
	}
	for i := range cleanGrad {
		if faultGrad[i] != cleanGrad[i] {
			t.Fatalf("faults changed grad coord %d", i)
		}
	}
	if faultStats.Retries == 0 || faultStats.Stalls == 0 {
		t.Fatalf("fault plan injected nothing: %+v", faultStats)
	}
	if faultStats.Messages <= cleanStats.Messages {
		t.Fatal("recovery should resend messages")
	}
	_, _, again := run(plan)
	if again != faultStats {
		t.Fatalf("fault schedule not deterministic: %+v vs %+v", again, faultStats)
	}
}

// TestRetryBytesUseCodecWireSize: fault-recovery resends must be priced at
// the codec's wire size, consistent with the normal reduction accounting.
func TestRetryBytesUseCodecWireSize(t *testing.T) {
	x, labels, factory := testTask(32)
	wire := int64(2 * factory(1).NumParams()) // fp16: 2 bytes per coord
	e := newEngine(dist.Config{
		Algo: dist.Tree, Codec: dist.FP16Codec{},
		Faults: &dist.FaultPlan{Seed: 1, DropRate: 1}, // worker 1 drops every step
	}, 2, factory)
	defer e.Close()
	if _, err := e.ComputeGradient(x, labels); err != nil {
		t.Fatal(err)
	}
	step := e.StepStats() // reduce (1 msg of wire bytes at P=2) + 1 retry
	if step.Retries != 1 {
		t.Fatalf("retries = %d, want 1", step.Retries)
	}
	if want := 2 * wire; step.Bytes != want {
		t.Fatalf("step bytes = %d, want %d (reduce + resend, both at fp16 wire size)", step.Bytes, want)
	}
}

// TestFP16CodecRoundsPayloads: the FP16 codec halves the wire bytes and
// rounds gradients through half precision (close to, but not equal to, the
// raw exchange).
func TestFP16CodecRoundsPayloads(t *testing.T) {
	x, labels, factory := testTask(64)
	raw := newEngine(dist.Config{Algo: dist.Tree}, 2, factory)
	if _, err := raw.ComputeGradient(x, labels); err != nil {
		t.Fatal(err)
	}
	rawGrad := flatGrad(raw)
	rawStep := raw.StepStats()
	raw.Close()

	fp16 := newEngine(dist.Config{Algo: dist.Tree, Codec: dist.FP16Codec{}}, 2, factory)
	if _, err := fp16.ComputeGradient(x, labels); err != nil {
		t.Fatal(err)
	}
	halfGrad := flatGrad(fp16)
	halfStep := fp16.StepStats()
	fp16.Close()

	if halfStep.Bytes != rawStep.Bytes/2 {
		t.Fatalf("fp16 moved %d bytes, want half of %d", halfStep.Bytes, rawStep.Bytes)
	}
	var maxErr, scale float64
	for i := range rawGrad {
		maxErr = math.Max(maxErr, math.Abs(float64(rawGrad[i])-float64(halfGrad[i])))
		scale = math.Max(scale, math.Abs(float64(rawGrad[i])))
	}
	if maxErr == 0 {
		t.Fatal("fp16 rounding should perturb at least one coordinate")
	}
	if maxErr > 1e-3*scale+1e-6 {
		t.Fatalf("fp16 error %v too large for gradient scale %v", maxErr, scale)
	}
}

// TestOneBitCodecCompressesAndConverges: 1-bit payloads shrink the wire
// ~30x, and with error feedback repeated steps still descend the loss.
func TestOneBitCodecCompressesAndConverges(t *testing.T) {
	x, labels, factory := testTask(64)
	e := newEngine(dist.Config{Algo: dist.Central, Codec: dist.NewOneBitCodec()}, 2, factory)
	defer e.Close()
	first, err := e.ComputeGradient(x, labels)
	if err != nil {
		t.Fatal(err)
	}
	step := e.StepStats()
	rawBytes := int64(4*factory(1).NumParams()) * 2 // 2 messages at P=2
	if step.Bytes >= rawBytes/20 {
		t.Fatalf("1-bit wire %d bytes, want ~32x under raw %d", step.Bytes, rawBytes)
	}
	loss := first
	for i := 0; i < 30; i++ {
		addScaledGrads(e.Master().Params(), -0.1)
		if err := e.BroadcastWeights(); err != nil {
			t.Fatal(err)
		}
		loss, err = e.ComputeGradient(x, labels)
		if err != nil {
			t.Fatal(err)
		}
	}
	if loss >= first {
		t.Fatalf("1-bit SGD failed to descend: %v -> %v", first, loss)
	}
}

// TestEvalAccuracyDataParallel: the sharded evaluation equals a direct
// master-replica evaluation for any worker count.
func TestEvalAccuracyDataParallel(t *testing.T) {
	x, labels, factory := testTask(100)
	want := -1.0
	for _, workers := range []int{1, 3} {
		e := newEngine(dist.Config{}, workers, factory)
		got, err := e.EvalAccuracy(x, labels, 32)
		if err != nil {
			t.Fatal(err)
		}
		e.Close()
		if want < 0 {
			// Reference: direct forward on a fresh master-seeded net.
			net := factory(1)
			want = nn.Accuracy(net.Forward(x, false), labels)
		}
		if got != want {
			t.Fatalf("W=%d: eval accuracy %v, want %v", workers, got, want)
		}
	}
}

// TestWorkerPanicBecomesError: bad labels must surface as an error from the
// lockstep barrier, not crash the process.
func TestWorkerPanicBecomesError(t *testing.T) {
	x, labels, factory := testTask(32)
	labels[7] = 99 // out of class range
	e := newEngine(dist.Config{}, 2, factory)
	defer e.Close()
	if _, err := e.ComputeGradient(x, labels); err == nil {
		t.Fatal("expected worker error for out-of-range label")
	}
	// The engine must survive the failed step and accept a corrected one.
	labels[7] = 0
	if _, err := e.ComputeGradient(x, labels); err != nil {
		t.Fatalf("engine unusable after recovered error: %v", err)
	}
}

// TestWorkerChunkPanicBecomesError: the same bad label in a batch of 64 on
// 2 workers, where each 32-row shard is above the loss's parallel grain, so
// the panic is raised inside a par chunk goroutine rather than on the
// worker's own stack — it must still come back as the step's error.
func TestWorkerChunkPanicBecomesError(t *testing.T) {
	x, labels, factory := testTask(64)
	labels[45] = 99
	e := newEngine(dist.Config{}, 2, factory)
	defer e.Close()
	if _, err := e.ComputeGradient(x, labels); err == nil || !strings.Contains(err.Error(), "label 99 out of range") {
		t.Fatalf("got %v, want the worker's out-of-range label error", err)
	}
	labels[45] = 0
	if _, err := e.ComputeGradient(x, labels); err != nil {
		t.Fatalf("engine unusable after recovered error: %v", err)
	}
}

// TestUnevenShards: batch sizes that do not divide the shard count still
// reduce to the exact batch mean (weighted by shard length).
func TestUnevenShards(t *testing.T) {
	x, labels, factory := testTask(50) // 50 rows over 4 shards: 13/13/12/12
	e := newEngine(dist.Config{Shards: 4}, 4, factory)
	defer e.Close()
	if _, err := e.ComputeGradient(x, labels); err != nil {
		t.Fatal(err)
	}
	got := flatGrad(e)

	net := factory(1)
	loss := &nn.SoftmaxCrossEntropy{}
	net.ZeroGrad()
	loss.Forward(net.Forward(x, true), labels)
	net.Backward(loss.Backward())
	var want []float32
	for _, p := range net.Params() {
		want = append(want, p.G.Data...)
	}
	var maxErr float64
	for i := range want {
		maxErr = math.Max(maxErr, math.Abs(float64(got[i])-float64(want[i])))
	}
	if maxErr > 1e-6 {
		t.Fatalf("uneven-shard gradient off by %v from full-batch reference", maxErr)
	}
}

// TestUnevenBatchAcrossWorkerCounts: batches that divide neither the worker
// count nor the shard count still satisfy the reproducibility contract —
// with Shards pinned, every worker count produces the identical bits.
func TestUnevenBatchAcrossWorkerCounts(t *testing.T) {
	x, labels, factory := testTask(50) // 50 rows over 7 shards: 8/7/7/7/7/7/7
	const shards = 7
	var refGrad []float32
	var refLoss float64
	for _, workers := range []int{1, 3, 4} { // 50 % workers != 0 for 3 and 4
		e := newEngine(dist.Config{Algo: dist.Ring, Shards: shards}, workers, factory)
		loss, err := e.ComputeGradient(x, labels)
		if err != nil {
			t.Fatal(err)
		}
		grad := flatGrad(e)
		e.Close()
		if refGrad == nil {
			refGrad, refLoss = grad, loss
			continue
		}
		if loss != refLoss {
			t.Fatalf("W=%d: loss %v differs bitwise from W=1's %v", workers, loss, refLoss)
		}
		for i := range grad {
			if grad[i] != refGrad[i] {
				t.Fatalf("W=%d: grad coord %d differs bitwise from W=1", workers, i)
			}
		}
	}
}

// TestMoreShardsThanRows: a shard count exceeding the batch rows leaves the
// surplus shards empty, and the result is bit-identical to the exact-fit
// split (the same live shards reduce in the same canonical order).
func TestMoreShardsThanRows(t *testing.T) {
	x, labels, factory := testTask(5)
	exact := newEngine(dist.Config{Shards: 5}, 4, factory)
	wantLoss, err := exact.ComputeGradient(x, labels)
	if err != nil {
		t.Fatal(err)
	}
	want := flatGrad(exact)
	exact.Close()

	padded := newEngine(dist.Config{Shards: 12}, 4, factory)
	defer padded.Close()
	gotLoss, err := padded.ComputeGradient(x, labels)
	if err != nil {
		t.Fatal(err)
	}
	got := flatGrad(padded)
	if gotLoss != wantLoss {
		t.Fatalf("empty shards changed the loss: %v vs %v", gotLoss, wantLoss)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("empty shards changed grad coord %d", i)
		}
	}
}

// unevenCodec is a test codec whose wire sizes differ per payload, to
// exercise the non-uniform byte accounting: slot parity decides the size.
type unevenCodec struct{}

func (unevenCodec) Name() string { return "uneven" }
func (unevenCodec) Transform(slot int, data []float32) int64 {
	return int64(len(data) + slot%2) // odd slots report one extra wire byte
}

// TestCodecExactByteAccounting pins the codec accounting fix: with
// non-uniform wire payloads the recorded Bytes must equal the schedule's
// byte factor times the exact summed wire bytes over the mean (multiply
// first, divide last) — not a truncated per-shard mean times the factor.
func TestCodecExactByteAccounting(t *testing.T) {
	x, labels, factory := testTask(60)
	n := factory(1).NumParams()
	for _, algo := range algorithms {
		const workers, shards = 3, 3
		e := newEngine(dist.Config{Algo: algo, Shards: shards, Codec: unevenCodec{}}, workers, factory)
		if _, err := e.ComputeGradient(x, labels); err != nil {
			t.Fatal(err)
		}
		got := e.StepStats()
		e.Close()
		// One bucket, three shards with wire sizes n, n+1, n (slots 0,1,2).
		wireTotal := int64(3*n + 1)
		var factor int64
		switch algo {
		case dist.Central, dist.Tree:
			factor = workers - 1
		case dist.Ring:
			factor = 2 * (workers - 1)
		}
		if want := factor * wireTotal / shards; got.Bytes != want {
			t.Errorf("%v: accounted %d bytes, want exact %d (factor %d x %d wire bytes / %d shards)",
				algo, got.Bytes, want, factor, wireTotal, shards)
		}
	}
}

// sparseCodec reports wire bytes only for shard 0's payloads — the regime
// where the old truncated per-shard mean (total/shards = 0) zeroed the
// accounted bytes entirely.
type sparseCodec struct{ buckets int }

func (sparseCodec) Name() string { return "sparse" }
func (c sparseCodec) Transform(slot int, data []float32) int64 {
	if slot < c.buckets { // shard 0's slots
		return 1
	}
	return 0
}

// TestTinyPayloadCodecBytesNonZero: one wire byte somewhere must never
// account to zero schedule bytes. The old mean truncation (1/3 shards -> 0
// bytes per bucket) lost it; multiply-first keeps the ring schedule's
// 4x1/3 = 1 byte per bucket.
func TestTinyPayloadCodecBytesNonZero(t *testing.T) {
	x, labels, factory := testTask(60)
	n := factory(1).NumParams()
	buckets := 4
	elems := (n + buckets - 1) / buckets
	e := newEngine(dist.Config{Algo: dist.Ring, Shards: 3, BucketElems: elems, Codec: sparseCodec{buckets: buckets}}, 3, factory)
	defer e.Close()
	if _, err := e.ComputeGradient(x, labels); err != nil {
		t.Fatal(err)
	}
	got := e.StepStats()
	if got.Bytes == 0 {
		t.Fatalf("codec wire bytes truncated to zero: %+v", got)
	}
	factor := int64(2 * (3 - 1)) // ring byte factor at P=3
	if want := int64(buckets) * (factor * 1 / 3); got.Bytes != want {
		t.Fatalf("accounted %d bytes, want %d (ring factor %d x 1 wire byte / 3 shards per bucket)", got.Bytes, want, factor)
	}
}

// TestCloseIdempotent: double Close must not panic or deadlock.
func TestCloseIdempotent(t *testing.T) {
	_, _, factory := testTask(8)
	e := newEngine(dist.Config{}, 2, factory)
	e.Close()
	e.Close()
}

// TestNewEngineRejectsMismatchedLayout: every replica's parameters view
// runs of one flat vector laid out like the master's, so NewEngine refuses a
// replica whose parameter count matches but one parameter's size does not,
// naming the replica and the parameter.
func TestNewEngineRejectsMismatchedLayout(t *testing.T) {
	_, _, factory := testTask(8)
	wider := models.NewMLP(models.MicroConfig{Classes: 4, InC: 3, InH: 8, InW: 8, Width: 5, Seed: 3})
	replicas := []*nn.Network{factory(1), factory(2), wider}
	if got, want := len(wider.Params()), len(replicas[0].Params()); got != want {
		t.Fatalf("wider MLP has %d params, want the master's %d", got, want)
	}
	msg := func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		dist.NewEngine(dist.Config{}, replicas)
		return ""
	}()
	if !strings.Contains(msg, "replica 2") || !strings.Contains(msg, "param 0") {
		t.Fatalf("NewEngine panic %q does not name replica 2 and param 0", msg)
	}
}

// TestReplicasOutliveTheirEngine: an engine re-homes its replicas'
// parameters into its own flat vectors, and the replicas keep those views
// after Close. A second engine over the same replicas must step exactly like
// one over fresh replicas holding the first engine's final master weights:
// re-homing copies the values, and no stale gradient view into the closed
// engine's vectors is ever read.
func TestReplicasOutliveTheirEngine(t *testing.T) {
	x, labels, factory := testTask(32)
	step := func(e *dist.Engine) (float64, []float32) {
		t.Helper()
		loss, err := e.ComputeGradient(x, labels)
		if err != nil {
			t.Fatal(err)
		}
		grad := flatGrad(e)
		opt.NewSGD(e.Master().Params(), opt.SGDConfig{Momentum: 0.9, WeightDecay: 0.0005}).Step(0.05)
		if err := e.BroadcastWeights(); err != nil {
			t.Fatal(err)
		}
		return loss, grad
	}
	for _, tc := range []struct {
		name string
		cfg  dist.Config
	}{
		{"plain", dist.Config{Algo: dist.Ring}},
		{"overlap-fp16", dist.Config{Algo: dist.Tree, BucketElems: 64, Overlap: true, Codec: dist.FP16Codec{}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			replicas := make([]*nn.Network, 3)
			for i := range replicas {
				replicas[i] = factory(1 + uint64(i)*7919)
			}
			a := dist.NewEngine(tc.cfg, replicas)
			for range 3 {
				step(a)
			}
			a.Close()
			final := flatWeights(replicas[0])

			b := dist.NewEngine(tc.cfg, replicas)
			defer b.Close()
			fresh := make([]*nn.Network, len(replicas))
			for i := range fresh {
				fresh[i] = factory(100 + uint64(i))
			}
			fresh[0].CopyWeightsFrom(replicas[0])
			ref := dist.NewEngine(tc.cfg, fresh)
			defer ref.Close()
			for w := range replicas {
				for _, n := range []*nn.Network{replicas[w], fresh[w]} {
					if i := sameBits(flatWeights(n), final); i >= 0 {
						t.Fatalf("replica %d weight %d differs from the first engine's final master weights after construction", w, i)
					}
				}
			}

			loss, grad := step(b)
			refLoss, refGrad := step(ref)
			if loss != refLoss {
				t.Fatalf("loss %v differs bitwise from the fresh engine's %v", loss, refLoss)
			}
			if n := sameBits(grad, refGrad); n >= 0 {
				t.Fatalf("reduced gradient coord %d = %v, fresh engine's %v", n, grad[n], refGrad[n])
			}
			for w := range replicas {
				got, want := flatWeights(replicas[w]), flatWeights(fresh[w])
				if n := sameBits(got, want); n >= 0 {
					t.Fatalf("replica %d weight %d = %v after the broadcast, fresh engine's %v", w, n, got[n], want[n])
				}
			}
		})
	}
}

// TestSyncReplicasReadMasterWeights: in synchronous mode every replica
// computes with the master's weights, so an optimizer step on the master
// reaches every shard without a BroadcastWeights — the reduced gradient and
// the loss equal a one-worker engine's on the same weights and the same
// pinned shards, bit for bit, on a flat ring and on 2×2, with and without
// overlap.
func TestSyncReplicasReadMasterWeights(t *testing.T) {
	x, labels, factory := testTask(48)
	h22 := dist.NewHierarchy(2, 2)
	for _, tc := range []struct {
		name    string
		workers int
		cfg     dist.Config
	}{
		{"ring3", 3, dist.Config{Algo: dist.Ring}},
		{"2x2", 4, dist.Config{Topology: &h22}},
	} {
		for _, overlap := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/overlap=%v", tc.name, overlap), func(t *testing.T) {
				cfg := tc.cfg
				cfg.Shards, cfg.BucketElems, cfg.Overlap = 4, 64, overlap
				e := newEngine(cfg, tc.workers, factory)
				defer e.Close()
				one := newEngine(dist.Config{Shards: 4}, 1, factory)
				defer one.Close()
				for step := range 3 {
					loss, err := e.ComputeGradient(x, labels)
					if err != nil {
						t.Fatal(err)
					}
					wantLoss, err := one.ComputeGradient(x, labels)
					if err != nil {
						t.Fatal(err)
					}
					got, want := flatGrad(e), flatGrad(one)
					if n := sameBits(got, want); n >= 0 || loss != wantLoss {
						t.Fatalf("step %d: loss %v vs %v; first differing gradient coordinate %d", step, loss, wantLoss, n)
					}
					addScaledGrads(e.Master().Params(), -0.1)
					addScaledGrads(one.Master().Params(), -0.1)
				}
			})
		}
	}
}

// BenchmarkEngineStep times one synchronous step of the train_fc_comm
// shape — a width-64 MLP on 3×24×24 inputs over 8 classes, 2 replicas, a
// ring, the fp16 wire and 65536-element buckets overlapped with the
// backward at batch 16: ComputeGradient, then BroadcastWeights. It is the
// engine-only per-step probe; the optimizer step is left out.
func BenchmarkEngineStep(b *testing.B) {
	ds := data.GenerateSynth(data.SynthConfig{
		Classes: 8, TrainSize: 16, TestSize: 8,
		C: 3, H: 24, W: 24, Noise: 0.25, MaxShift: 1, Seed: 7,
	})
	idx := make([]int, 16)
	for i := range idx {
		idx[i] = i
	}
	x, labels := ds.Train.MustGather(idx)
	replicas := make([]*nn.Network, 2)
	for i := range replicas {
		replicas[i] = models.NewMLP(models.MicroConfig{Classes: 8, InC: 3, InH: 24, InW: 24, Width: 64, Seed: 1 + uint64(i)})
	}
	e := dist.NewEngine(dist.Config{
		Algo: dist.Ring, Codec: dist.FP16Codec{}, BucketElems: 65536, Overlap: true,
	}, replicas)
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := e.ComputeGradient(x, labels); err != nil {
			b.Fatal(err)
		}
		if err := e.BroadcastWeights(); err != nil {
			b.Fatal(err)
		}
	}
}
