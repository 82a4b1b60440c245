package comm

import "repro/internal/dist"

// This file is the analytic twin of the engine's overlap scheduler
// (dist.Config.Overlap): the closed-form hidden/exposed split of one
// overlapped training step, and the alpha-beta timing model that pipelines
// bucketed allreduces against the backward pass — the bucket-level
// replacement for the crude max(0, t_comm − t_comp/2) exposure heuristic.

// ExpectedOverlapStats returns the closed-form dist.OverlapStats of one
// overlapped training step (bucketed gradient reduce plus weight broadcast)
// of a raw-float32 gradient over the fleet (h, sizes) — the analytic twin of
// Engine.StepOverlapStats under Config.Overlap, cross-checked exactly in
// tests. paramElems lists the per-parameter coordinate counts in Params()
// order and bucketElems the engine's Config.BucketElems; the split follows
// the engine's structural rule: a bucket's reduction (the aggregate of its
// per-tier reduce schedule) hides inside the backward pass unless the bucket
// covers parameter 0, whose gradient is the last to land; broadcasts are
// always exposed.
func ExpectedOverlapStats(h dist.Hierarchy, sizes []int, paramElems []int, bucketElems int) dist.OverlapStats {
	total := 0
	for _, n := range paramElems {
		total += n
	}
	var o dist.OverlapStats
	for _, b := range dist.BucketRanges(total, bucketElems) {
		payload := 4 * int64(b[1]-b[0])
		r := dist.HierReduceSchedule(h, sizes, payload).Total()
		// Hidden unless the bucket covers parameter 0 (the last gradient
		// to land): its low coordinate falls inside the first parameter.
		if len(paramElems) > 0 && b[0] >= paramElems[0] {
			o.HiddenRounds += r.Steps
			o.HiddenBytes += r.Bytes
		} else {
			o.ExposedRounds += r.Steps
			o.ExposedBytes += r.Bytes
		}
		bc := dist.HierBroadcastSchedule(h, sizes, payload).Total()
		o.ExposedRounds += bc.Steps
		o.ExposedBytes += bc.Bytes
	}
	return o
}

// EqualBuckets splits totalBytes into k near-equal bucket payloads (the
// leading buckets carry the remainder), the bucket layout the simulator's
// overlap model pipelines. k <= 1 returns the whole payload as one bucket.
func EqualBuckets(totalBytes int64, k int) []int64 {
	if k <= 1 || int64(k) > totalBytes {
		return []int64{totalBytes}
	}
	base, rem := totalBytes/int64(k), totalBytes%int64(k)
	out := make([]int64, k)
	for i := range out {
		out[i] = base
		if int64(i) < rem {
			out[i]++
		}
	}
	return out
}

// BucketTiming is one bucket's slot in the overlapped reduction pipeline.
// Buckets are indexed like the engine's (bucket 0 covers the first layers);
// the backward pass produces gradients in reverse, so the highest-indexed
// bucket is ready first and bucket 0 only at the end of the backward.
type BucketTiming struct {
	// Bytes is the bucket's gradient payload.
	Bytes int64
	// ReadySec is when the backward pass finishes the bucket's gradients
	// (its share of the backward, accumulated from the tail).
	ReadySec float64
	// StartSec is when the bucket's allreduce launches: ready, and the
	// fabric free of earlier buckets.
	StartSec float64
	// DoneSec is when the bucket's allreduce completes (for hierarchical
	// schedules: when its inter-tier exchange completes).
	DoneSec float64
	// Hidden marks buckets whose allreduce completed before the backward
	// pass ended — fully overlapped communication.
	Hidden bool
}

// OverlapSchedule pipelines the bucketed allreduces of one iteration over
// the fleet (h, sizes) against a backward pass of backwardSec seconds, each
// tier priced on its own fabric. Each bucket's backward share is
// proportional to its payload; buckets become ready from the tail of the
// gradient forwards (the order backward produces them) and flow through two
// stages in that order: the intra-node reduce serializes on the intra
// fabric, the leader exchange on the inter fabric, and — the pipelining the
// composed topology enables — the inter exchange of bucket k overlaps the
// intra reduce of bucket k+1, since the two tiers occupy disjoint fabrics.
// A flat world's first stage costs exactly zero, leaving one fabric.
//
// A bucket's cost on a tier is its byte share of that tier's full-payload
// AllreduceTime: consecutive buckets pipeline their latency rounds
// back-to-back on the fabric, so bucketing amortizes the alpha terms rather
// than multiplying them — the bucket costs sum exactly to the serial
// allreduce time, and splitting finer only enables overlap, never adds
// cost. The returned timeline is in bucket index order; ExposedTime gives
// the exposed remainder.
func OverlapSchedule(intra, inter Network, h dist.Hierarchy, sizes []int, bucketBytes []int64, backwardSec float64) []BucketTiming {
	var total int64
	for _, b := range bucketBytes {
		total += b
	}
	largest, nodes := tierWorlds(h, sizes)
	fullIntra := intra.AllreduceTime(h.Intra, largest, total)
	fullInter := inter.AllreduceTime(h.Inter, nodes, total)
	out := make([]BucketTiming, len(bucketBytes))
	var produced int64
	var intraFree, interFree float64
	for j := len(bucketBytes) - 1; j >= 0; j-- {
		produced += bucketBytes[j]
		ready := backwardSec
		share := 1.0
		if total > 0 {
			ready = backwardSec * float64(produced) / float64(total)
			share = float64(bucketBytes[j]) / float64(total)
		}
		start := max(ready, intraFree)
		intraFree = start + fullIntra*share
		interFree = max(intraFree, interFree) + fullInter*share
		out[j] = BucketTiming{
			Bytes:    bucketBytes[j],
			ReadySec: ready,
			StartSec: start,
			DoneSec:  interFree,
			Hidden:   interFree <= backwardSec,
		}
	}
	return out
}

// ExposedTime returns the communication a timeline leaves exposed beyond
// the backward pass: the last completion minus backwardSec, never negative.
func ExposedTime(timeline []BucketTiming, backwardSec float64) float64 {
	var last float64
	for _, t := range timeline {
		if t.DoneSec > last {
			last = t.DoneSec
		}
	}
	if last <= backwardSec {
		return 0
	}
	return last - backwardSec
}

// OverlappedAllreduceTime prices the exposed communication of one bucketed
// gradient allreduce over the fleet (h, sizes), overlapped with a
// backwardSec backward pass — the bucket-level replacement for the old
// max(0, t_comm − t_comp/2) heuristic. The whole backward, not half the
// iteration's compute, is the hideable window, and only what the pipeline
// cannot fit inside it (at minimum the bucket covering the first layers,
// which is ready only when the backward ends) is exposed.
func OverlappedAllreduceTime(intra, inter Network, h dist.Hierarchy, sizes []int, bucketBytes []int64, backwardSec float64) float64 {
	return ExposedTime(OverlapSchedule(intra, inter, h, sizes, bucketBytes, backwardSec), backwardSec)
}
