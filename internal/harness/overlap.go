package harness

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/models"
)

// overlapBuckets is the bucket count the study splits the gradient into —
// enough granularity that all but the first layers' bucket can hide.
const overlapBuckets = 8

// OverlapStudy drives the engine's overlap scheduler (dist.Config.Overlap)
// for one training step per topology — bucket reductions firing inside the
// backward pass as their layers' gradients land — and tabulates the measured
// hidden/exposed split of the schedule next to comm's closed-form twin
// (ExpectedOverlapStats) and the alpha-beta pipeline price of the same
// bucket layout on FDR InfiniBand. Everything here is deterministic: the
// counters are exact schedule arithmetic (seeded micro model, one step) and
// the timing columns closed forms, so the docs-drift job regenerates this
// section bit-identically alongside the analytic exhibits.
func OverlapStudy() (*Table, error) {
	const workers = 4
	t := &Table{
		ID: "Overlap study", Title: fmt.Sprintf("Bucket reductions overlapped with the backward pass (P=%d, micro-AlexNet, %d buckets)", workers, overlapBuckets),
		Header: []string{"topology", "hidden rounds", "exposed rounds", "hidden KB", "exposed KB", "hidden bytes", "model", "FDR exposed (vs serial)"},
	}
	// Micro-AlexNet rather than the test MLP: its first conv is tiny, so
	// nearly every bucket is overlap-eligible — the convnet shape the
	// overlap argument is about (early layers cheap, late layers heavy).
	net := models.MicroAlexNetSpec(models.MicroConfig{Classes: 4, InH: 16, Width: 4})
	f := newFixture(net.Factory(), 1, studySynth(16, 64), 64)
	paramElems, nparams := f.paramElems()
	bucketElems := (nparams + overlapBuckets - 1) / overlapBuckets
	var bucketBytes []int64
	for _, b := range dist.BucketRanges(nparams, bucketElems) {
		bucketBytes = append(bucketBytes, 4*int64(b[1]-b[0]))
	}
	fdr := comm.MellanoxFDR // both tiers on one fabric, for comparability
	for _, h := range studyTopologies(workers) {
		r, err := f.step(h, dist.Config{BucketElems: bucketElems, Overlap: true})
		if err != nil {
			return nil, err
		}
		got := r.Overlap
		// The FDR columns price the same bucket layout with a backward
		// window equal to the serial allreduce time, so the pipeline's
		// effect is visible regardless of compute calibration.
		var serial float64
		for _, b := range bucketBytes {
			serial += comm.AllreduceTime(fdr, fdr, h, nil, b)
		}
		exposed := comm.OverlappedAllreduceTime(fdr, fdr, h, nil, bucketBytes, serial)
		t.Add(topologyLabel(h),
			fmt.Sprintf("%d", got.HiddenRounds),
			fmt.Sprintf("%d", got.ExposedRounds),
			fmt.Sprintf("%.1f", float64(got.HiddenBytes)/1e3),
			fmt.Sprintf("%.1f", float64(got.ExposedBytes)/1e3),
			fmt.Sprintf("%.0f%%", 100*got.HiddenByteFrac()),
			matchCell(got, comm.ExpectedOverlapStats(h, nil, paramElems, bucketElems)),
			fmt.Sprintf("%.3fms (%.3fms)", 1e3*exposed, 1e3*serial))
	}
	t.Note("Measured columns come from one engine step with Config.Overlap: bucket reductions fire inside the backward pass as their parameters' gradients land; the bucket covering the first layers is only ready when the backward ends, so its reduction — plus the weight broadcast — is exposed.")
	t.Note("The model column cross-checks comm.ExpectedOverlapStats against the measured split; \"exact\" means every counter matches.")
	t.Note("FDR column: exposed time of the pipelined bucket allreduces with a backward window equal to the serial allreduce time (in parentheses) — what replaces the old max(0, t_comm - t_comp/2) heuristic in cluster.Simulate.")
	return t, nil
}
