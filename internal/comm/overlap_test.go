package comm

import (
	"math"
	"testing"

	"repro/internal/dist"
)

// TestExpectedOverlapStatsClosedForm checks the split against hand-written
// arithmetic: params of 10/50/40 coordinates in 4 buckets of 25 — bucket 0
// covers param 0 (exposed), buckets 1-3 do not (hidden); all broadcasts
// exposed.
func TestExpectedOverlapStatsClosedForm(t *testing.T) {
	paramElems := []int{10, 50, 40}
	const p, bucketElems = 4, 25
	for _, algo := range []dist.Algorithm{dist.Central, dist.Tree, dist.Ring} {
		got := ExpectedOverlapStats(dist.Flat(algo, p), nil, paramElems, bucketElems)
		var want dist.OverlapStats
		for _, b := range dist.BucketRanges(100, bucketElems) {
			payload := 4 * int64(b[1]-b[0])
			r := dist.ReduceSchedule(algo, p, payload)
			if b[0] >= 10 { // past param 0: hidden
				want.HiddenRounds += r.Steps
				want.HiddenBytes += r.Bytes
			} else {
				want.ExposedRounds += r.Steps
				want.ExposedBytes += r.Bytes
			}
			bc := dist.BroadcastSchedule(algo, p, payload)
			want.ExposedRounds += bc.Steps
			want.ExposedBytes += bc.Bytes
		}
		if got != want {
			t.Errorf("%v: %+v, want %+v", algo, got, want)
		}
		// The split partitions the full allreduce closed form.
		full := ExpectedStats(algo, p, 0)
		var rounds int64
		for range dist.BucketRanges(100, bucketElems) {
			rounds += full.Steps
		}
		if got.Rounds() != rounds {
			t.Errorf("%v: split rounds %d != bucketed allreduce rounds %d", algo, got.Rounds(), rounds)
		}
		if got.TotalBytes() != ExpectedStats(algo, p, 4*100).Bytes {
			t.Errorf("%v: split bytes %d != allreduce bytes", algo, got.TotalBytes())
		}
	}
}

// TestExpectedHierOverlapStatsPartition: the hierarchical split's totals
// must equal the bucketed two-tier schedule's aggregate.
func TestExpectedHierOverlapStatsPartition(t *testing.T) {
	h := dist.NewHierarchy(2, 4)
	paramElems := []int{16, 64, 20}
	const bucketElems = 30
	got := ExpectedOverlapStats(h, nil, paramElems, bucketElems)
	var wantRounds, wantBytes int64
	for _, b := range dist.BucketRanges(100, bucketElems) {
		payload := 4 * int64(b[1]-b[0])
		tot := dist.HierReduceSchedule(h, nil, payload).Total()
		bc := dist.HierBroadcastSchedule(h, nil, payload).Total()
		wantRounds += tot.Steps + bc.Steps
		wantBytes += tot.Bytes + bc.Bytes
	}
	if got.Rounds() != wantRounds || got.TotalBytes() != wantBytes {
		t.Fatalf("split %+v does not partition the two-tier schedule (%d rounds, %d bytes)", got, wantRounds, wantBytes)
	}
	if got.HiddenBytes == 0 {
		t.Fatal("buckets past param 0 should hide")
	}
}

// TestOverlapSchedulePipeline pins the pipeline mechanics: readiness runs
// from the tail of the gradient, allreduces serialize on the fabric, and
// the exposed remainder is exactly the last completion past the backward.
func TestOverlapSchedulePipeline(t *testing.T) {
	n := Network{Name: "test", Alpha: 1e-6, Beta: 1e-9}
	buckets := EqualBuckets(40e6, 8)
	const backward = 0.050
	tl := OverlapSchedule(Network{}, n, dist.Flat(dist.Ring, 64), nil, buckets, backward)
	if len(tl) != 8 {
		t.Fatalf("timeline has %d buckets, want 8", len(tl))
	}
	for j := range tl {
		b := tl[j]
		if b.StartSec < b.ReadySec {
			t.Fatalf("bucket %d started before its gradients were ready", j)
		}
		if b.DoneSec <= b.StartSec {
			t.Fatalf("bucket %d has no communication time", j)
		}
		if j+1 < len(tl) && tl[j].ReadySec <= tl[j+1].ReadySec {
			t.Fatalf("bucket %d ready no later than bucket %d: backward runs tail-first", j, j+1)
		}
		if b.Hidden != (b.DoneSec <= backward) {
			t.Fatalf("bucket %d hidden flag inconsistent with its completion", j)
		}
	}
	// Bucket 0 covers the first layers: ready exactly when backward ends,
	// so it is always exposed.
	if tl[0].ReadySec != backward || tl[0].Hidden {
		t.Fatalf("bucket 0 must be ready at the backward's end and exposed: %+v", tl[0])
	}
	exposed := ExposedTime(tl, backward)
	if exposed <= 0 {
		t.Fatal("bucket 0's allreduce is always exposed")
	}
	var serial float64
	for _, b := range buckets {
		serial += n.AllreduceTime(dist.Ring, 64, b)
	}
	if exposed >= serial {
		t.Fatalf("pipeline hid nothing: exposed %.6f vs serial %.6f", exposed, serial)
	}
}

// TestOverlappedBeatsOldHeuristic is the simulator acceptance bound: the
// bucket-level exposure is never negative, never exceeds the serial
// allreduce time, and wherever the old max(0, t_comm − t_comp/2) heuristic
// reported exposure at all, the bucket-level model reports no more — the
// backward window (2/3 of compute) is wider than the old t_comp/2 and the
// pipeline fills it. Where the old heuristic reported zero it was simply
// wrong: the first layers' bucket is only ready when the backward ends, so
// its allreduce is always exposed — the mispricing this model fixes.
func TestOverlappedBeatsOldHeuristic(t *testing.T) {
	const p = 512
	payload := int64(100e6)
	buckets := EqualBuckets(payload, 16)
	for _, n := range []Network{MellanoxFDR, IntelQDR, Intel10GbE} {
		for _, algo := range []dist.Algorithm{dist.Tree, dist.Ring} {
			serial := n.AllreduceTime(algo, p, payload)
			// Sweep compute from comm-bound through compute-bound.
			for _, comp := range []float64{serial / 4, serial / 2, serial, 1.5 * serial, 4 * serial} {
				backward := 2.0 / 3 * comp
				exposed := OverlappedAllreduceTime(Network{}, n, dist.Flat(algo, p), nil, buckets, backward)
				if exposed < 0 {
					t.Fatalf("%s %v: negative exposure %v", n.Name, algo, exposed)
				}
				if exposed > serial {
					t.Fatalf("%s %v: exposure %.6fs exceeds the serial allreduce %.6fs", n.Name, algo, exposed, serial)
				}
				if old := serial - comp/2; old > 0 && exposed > old {
					t.Errorf("%s %v comp=%.4fs: bucket-level exposure %.6fs exceeds old heuristic %.6fs",
						n.Name, algo, comp, exposed, old)
				}
			}
		}
	}
}

// TestHierOverlapCrossTierPipelining: with the inter exchange of bucket k
// overlapping the intra reduce of bucket k+1, the exposed time must be at
// most the serial two-tier cost and strictly less when the backward window
// is meaningful.
func TestHierOverlapCrossTierPipelining(t *testing.T) {
	h := dist.NewHierarchy(8, 8)
	intra := Network{Name: "fast", Alpha: 5e-6, Beta: 0.0125e-9}
	inter := MellanoxFDR
	buckets := EqualBuckets(100e6, 16)
	var serial float64
	for _, b := range buckets {
		serial += AllreduceTime(intra, inter, h, nil, b)
	}
	// Even with a zero backward window the cross-tier pipeline beats the
	// serial composition: tier k+1's intra reduce rides under tier k's
	// inter exchange.
	zeroWin := OverlappedAllreduceTime(intra, inter, h, nil, buckets, 0)
	if zeroWin >= serial {
		t.Fatalf("cross-tier pipelining saved nothing: %.6f vs serial %.6f", zeroWin, serial)
	}
	withWin := OverlappedAllreduceTime(intra, inter, h, nil, buckets, serial)
	if withWin >= zeroWin {
		t.Fatalf("a backward window must hide more: %.6f vs %.6f", withWin, zeroWin)
	}
	if withWin <= 0 {
		t.Fatal("the first layers' bucket is always exposed")
	}
	if math.IsNaN(withWin) || math.IsInf(withWin, 0) {
		t.Fatalf("degenerate exposure %v", withWin)
	}
}

// TestEqualBuckets: the split must cover the payload exactly with
// near-equal buckets, degenerating to one bucket for tiny payloads.
func TestEqualBuckets(t *testing.T) {
	b := EqualBuckets(103, 4)
	if len(b) != 4 {
		t.Fatalf("got %d buckets, want 4", len(b))
	}
	var sum int64
	for _, x := range b {
		sum += x
		if x < 25 || x > 26 {
			t.Fatalf("uneven bucket %d", x)
		}
	}
	if sum != 103 {
		t.Fatalf("buckets sum to %d, want 103", sum)
	}
	if one := EqualBuckets(3, 8); len(one) != 1 || one[0] != 3 {
		t.Fatalf("tiny payload should stay one bucket: %v", one)
	}
}
