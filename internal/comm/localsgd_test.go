package comm

import (
	"testing"

	"repro/internal/dist"
)

// TestLocalSGDStatsH1MatchesEveryStep: at H=1 a local-SGD run syncs every
// step, so its closed form is exactly steps × the every-step allreduce
// closed form (reduce plus broadcast — ExpectedStats' two phases) for
// every algorithm and bucketing.
func TestLocalSGDStatsH1MatchesEveryStep(t *testing.T) {
	const p, nelems, steps = 8, 10_000, 12
	for _, algo := range []dist.Algorithm{dist.Central, dist.Tree, dist.Ring} {
		perStep := ExpectedStats(algo, p, 4*int64(nelems))
		got := ExpectedLocalSGDStats(algo, p, 1, steps, nelems, 0, nil)
		want := dist.CommStats{
			Messages: perStep.Messages * steps,
			Bytes:    perStep.Bytes * steps,
			Steps:    perStep.Steps * steps,
		}
		if got != want {
			t.Fatalf("%v: H=1 closed form %+v, want steps×ExpectedStats %+v", algo, got, want)
		}
	}
}

// TestLocalSGDStatsScaleAsOneOverH: whenever H divides the step count,
// every counter is exactly 1/H of the H=1 run — the tentpole's comm-volume
// claim in closed form, bucketed and unbucketed.
func TestLocalSGDStatsScaleAsOneOverH(t *testing.T) {
	const p, nelems, steps = 4, 9_999, 24
	for _, bucketElems := range []int{0, 1000} {
		base := ExpectedLocalSGDStats(dist.Ring, p, 1, steps, nelems, bucketElems, nil)
		for _, h := range []int{2, 3, 4, 6, 8, 12, 24} {
			got := ExpectedLocalSGDStats(dist.Ring, p, h, steps, nelems, bucketElems, nil)
			if got.Bytes*int64(h) != base.Bytes || got.Messages*int64(h) != base.Messages {
				t.Fatalf("H=%d (buckets %d): %+v is not exactly 1/H of %+v", h, bucketElems, got, base)
			}
		}
	}
}

// TestLocalSGDRoundCounts pins the floor arithmetic of the round helpers,
// including steps H does not divide and the intra/full split.
func TestLocalSGDRoundCounts(t *testing.T) {
	if got := LocalSGDSyncRounds(10, 4); got != 2 {
		t.Fatalf("10 steps at H=4: %d sync rounds, want 2", got)
	}
	if got := LocalSGDSyncRounds(10, 0); got != 10 {
		t.Fatalf("H=0 is the every-step path: %d rounds, want 10", got)
	}
	if got := LocalSGDIntraRounds(16, 8, 2); got != 6 {
		t.Fatalf("16 steps at H=8, Hi=2: %d intra rounds, want 6", got)
	}
	if got := LocalSGDIntraRounds(16, 8, 0); got != 0 {
		t.Fatalf("intra disabled: %d rounds, want 0", got)
	}
	if got := LocalSGDIntraRounds(16, 8, 8); got != 0 {
		t.Fatalf("Hi=H: every intra boundary is a full boundary, got %d", got)
	}
}

// TestLocalSGDTierStatsNesting: the hierarchical closed form nests — with
// the intra tier disabled it is fullRounds × the two-tier round, adding
// intra rounds grows Intra only, and the FP16 wire halves the reduce bytes
// while the broadcast stays raw.
func TestLocalSGDTierStatsNesting(t *testing.T) {
	h := dist.NewHierarchy(4, 8)
	const nelems, steps = 25_000, 16

	plain := ExpectedLocalSGDTierStats(h, nil, 8, 0, steps, nelems, 0, nil)
	round := dist.HierReduceSchedule(h, nil, 4*int64(nelems))
	round.Add(dist.HierBroadcastSchedule(h, nil, 4*int64(nelems)))
	want := dist.TierStats{
		Intra: dist.CommStats{Messages: round.Intra.Messages * 2, Bytes: round.Intra.Bytes * 2, Steps: round.Intra.Steps * 2},
		Inter: dist.CommStats{Messages: round.Inter.Messages * 2, Bytes: round.Inter.Bytes * 2, Steps: round.Inter.Steps * 2},
	}
	if plain != want {
		t.Fatalf("no-intra closed form %+v, want 2 full rounds %+v", plain, want)
	}

	layered := ExpectedLocalSGDTierStats(h, nil, 8, 2, steps, nelems, 0, nil)
	if layered.Inter != plain.Inter {
		t.Fatalf("intra rounds leaked onto the inter tier: %+v vs %+v", layered.Inter, plain.Inter)
	}
	if layered.Intra.Bytes <= plain.Intra.Bytes {
		t.Fatalf("intra rounds added no intra traffic: %+v vs %+v", layered.Intra, plain.Intra)
	}

	fp16 := ExpectedLocalSGDTierStats(h, nil, 8, 0, steps, nelems, 0, FP16Wire)
	if fp16.Inter.Bytes >= plain.Inter.Bytes || fp16.Intra.Bytes >= plain.Intra.Bytes {
		t.Fatalf("fp16 wire did not shrink the schedule: %+v vs %+v", fp16, plain)
	}
}
