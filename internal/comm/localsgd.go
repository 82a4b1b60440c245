package comm

// Local-SGD closed forms: the analytic twins of a dist engine driven
// through Engine.LocalStep (Config.SyncEvery = H). Workers communicate
// only at sync boundaries — floor(steps/H) full weight-averaging rounds,
// each a reduce plus a broadcast of the flat parameter vector — so every
// counter scales by exactly 1/H relative to the every-step path whenever H
// divides the step count. Hierarchical local SGD adds intra-node-only
// rounds between full boundaries, accounted on the intra tier alone.
//
// The formulas mirror the engine's executed schedules bucket by bucket
// (dist.BucketRanges splits the payload identically on both sides), so
// measured CommStats/TierStats match these counter-for-counter for clean
// runs — the same contract ExpectedStats carries for the gradient path.
// Fault-recovery traffic and membership broadcasts are extra on the
// measured side, exactly as they are for every other closed form here.

import "repro/internal/dist"

// WireSizer maps a payload's float32 element count to its on-wire byte
// size under a codec. nil means raw float32.
type WireSizer func(elems int) int64

// RawWire prices a payload exchanged as raw float32: 4 bytes/coordinate.
func RawWire(elems int) int64 { return 4 * int64(elems) }

// FP16Wire prices a payload exchanged through dist.FP16Codec: 2
// bytes/coordinate.
func FP16Wire(elems int) int64 { return 2 * int64(elems) }

// LocalSGDSyncRounds returns the number of full weight-averaging rounds a
// local-SGD run of the given length performs: floor(steps/syncEvery), one
// round per closed window. syncEvery < 1 is the every-step path.
func LocalSGDSyncRounds(steps int64, syncEvery int) int64 {
	if syncEvery < 1 {
		syncEvery = 1
	}
	return steps / int64(syncEvery)
}

// LocalSGDIntraRounds returns the number of intra-node-only averaging
// rounds: every intraSyncEvery-th step that is not also a full boundary,
// floor(steps/intraSyncEvery) − floor(steps/syncEvery). 0 when the
// intermediate tier is disabled.
func LocalSGDIntraRounds(steps int64, syncEvery, intraSyncEvery int) int64 {
	if intraSyncEvery < 1 {
		return 0
	}
	return steps/int64(intraSyncEvery) - LocalSGDSyncRounds(steps, syncEvery)
}

// scaleStats multiplies every counter of one round's schedule by the round
// count.
func scaleStats(s dist.CommStats, rounds int64) dist.CommStats {
	return dist.CommStats{
		Messages: s.Messages * rounds,
		Bytes:    s.Bytes * rounds,
		Steps:    s.Steps * rounds,
		Retries:  s.Retries * rounds,
		Stalls:   s.Stalls * rounds,
	}
}

// ExpectedLocalSGDTierStats returns the closed-form per-tier counters of a
// local-SGD run over the fleet (h, sizes): steps local steps with full
// averaging rounds every syncEvery steps plus intra-node-only rounds every
// intraSyncEvery steps in between (0 disables them), the nelems-coordinate
// parameter vector bucketed into bucketElems chunks (0 = one bucket), each
// worker's payload priced by wire (nil = raw float32). Per full round every
// bucket costs one two-tier reduce of the wire payload plus one two-tier
// broadcast of the raw float32 weights — the exact schedules the engine
// records — and the run performs floor(steps/syncEvery) of them:
//
//	stats(H) = floor(steps/H) · Σ_buckets [reduce(wire(n_b)) + bcast(4·n_b)]
//
// so bytes scale as 1/H whenever H divides steps. An intra-only round
// prices the same round's intra components exclusively — the leaders never
// exchange, so the inter tier accumulates nothing between full boundaries
// (and a flat world, whose intra tier is empty, nothing at all). At
// syncEvery = 1 this equals the measured counters of the every-step
// gradient path with the same bucketing (weight averages and gradient
// reductions run the same schedule — only the payload's meaning differs).
func ExpectedLocalSGDTierStats(h dist.Hierarchy, sizes []int, syncEvery, intraSyncEvery int, steps int64, nelems, bucketElems int, wire WireSizer) dist.TierStats {
	if wire == nil {
		wire = RawWire
	}
	var round dist.TierStats
	for _, b := range dist.BucketRanges(nelems, bucketElems) {
		n := b[1] - b[0]
		round.Add(dist.HierReduceSchedule(h, sizes, wire(n)))
		round.Add(dist.HierBroadcastSchedule(h, sizes, 4*int64(n)))
	}
	fullRounds := LocalSGDSyncRounds(steps, syncEvery)
	return dist.TierStats{
		Intra: scaleStats(round.Intra, fullRounds+LocalSGDIntraRounds(steps, syncEvery, intraSyncEvery)),
		Inter: scaleStats(round.Inter, fullRounds),
	}
}

// ExpectedLocalSGDStats is the aggregate view of ExpectedLocalSGDTierStats
// for a flat p-worker world with no intermediate tier — the form the
// every-step and flat local-SGD cross-checks (core.Train's Result.Comm,
// benchmark/'s mirror) compare a CommStats against.
func ExpectedLocalSGDStats(algo dist.Algorithm, p, syncEvery int, steps int64, nelems, bucketElems int, wire WireSizer) dist.CommStats {
	return ExpectedLocalSGDTierStats(dist.Flat(algo, p), nil, syncEvery, 0, steps, nelems, bucketElems, wire).Total()
}
