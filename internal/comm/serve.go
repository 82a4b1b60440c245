package comm

import (
	"fmt"

	"repro/internal/serve"
)

// This file prices the serving tier the way the rest of comm prices
// training: closed forms for the dynamic batcher's steady state in the
// deterministic-clock regime — a uniform inter-arrival gap g, the trace
// serve.UniformTrace generates. In that regime every quantity the scheduler
// measures is exact arithmetic:
//
//	b = K                 if (K−1)·g ≤ D   (size trigger wins)
//	    ⌊D/g⌋ + 1         otherwise        (deadline trigger wins)
//	w = min(D, (K−1)·g)                    (head's wait at flush)
//
// Note w uses K, not b: when the deadline wins, the head waits the full D
// even though only b = ⌊D/g⌋+1 requests arrive inside the window.
//
// with K = MaxBatch, D = MaxDelay. Full batch j (0-indexed) heads at
// j·b·g, flushes at j·b·g + w; a final partial batch of r = n mod b
// requests flushes at its head's deadline. Under the capacity condition
// S(b) ≤ R·b·g (service of a full batch fits inside R batch periods)
// dispatch is immediate, so member m of a full batch sees latency
// w − m·g + S(b). Steady-state mean batch size is b and throughput equals
// the offered rate 1/g; saturation throughput per replica is b/S(b).

// ServeBatchSize returns the steady-state batch size b of the
// deterministic-clock regime for the given batch window and inter-arrival
// gap (gap >= 1).
func ServeBatchSize(cfg serve.Config, gap serve.Ticks) int {
	k := cfg.MaxBatch
	if serve.Ticks(k-1)*gap <= cfg.MaxDelay {
		return k
	}
	return int(cfg.MaxDelay/gap) + 1
}

// ExpectedServeStats prices a run of n uniform-gap requests exactly,
// counter-for-counter: the returned Stats must Equal the measured stats of
// serve.Simulate(cfg, serve.UniformTrace(n, gap, …)) — percentiles,
// histogram, flush causes, busy ticks and all. It refuses regimes the
// closed form does not cover: gap < 1, admission-control rejections
// (QueueCap below the steady batch size), or insufficient capacity
// (S(b) > Replicas·b·gap with more batches than replicas, where flushed
// batches would queue for dispatch).
func ExpectedServeStats(cfg serve.Config, n int, gap serve.Ticks) (serve.Stats, error) {
	if cfg.Replicas == 0 {
		cfg.Replicas = 1
	}
	var st serve.Stats
	if cfg.MaxBatch < 1 || gap < 1 || n < 0 {
		return st, fmt.Errorf("comm: serve model wants MaxBatch >= 1, gap >= 1, n >= 0")
	}
	st.Hist = make([]int64, cfg.MaxBatch+1)
	st.Offered = int64(n)
	if n == 0 {
		return st, nil
	}

	b := ServeBatchSize(cfg, gap)
	w := cfg.MaxDelay
	fullCause := serve.DeadlineFlush
	if hw := serve.Ticks(cfg.MaxBatch-1) * gap; hw <= cfg.MaxDelay {
		w = hw
		fullCause = serve.SizeFlush
	}

	minNeeded := n
	if b < minNeeded {
		minNeeded = b
	}
	if cfg.QueueCap > 0 && cfg.QueueCap < minNeeded {
		return st, fmt.Errorf("comm: QueueCap %d below steady batch size %d — rejections are outside the closed form", cfg.QueueCap, minNeeded)
	}

	nFull := n / b
	r := n % b
	totalBatches := nFull
	if r > 0 {
		totalBatches++
	}
	svcFull := cfg.Service.BatchTicks(b)
	if totalBatches > cfg.Replicas && svcFull > serve.Ticks(cfg.Replicas)*serve.Ticks(b)*gap {
		return st, fmt.Errorf("comm: capacity violated: S(%d)=%d > R·b·g=%d — batches queue for dispatch, outside the closed form",
			b, svcFull, serve.Ticks(cfg.Replicas)*serve.Ticks(b)*gap)
	}

	st.Accepted = int64(n)
	st.Completed = int64(n)
	st.Batches = int64(totalBatches)
	st.QueueHWM = minNeeded
	if fullCause == serve.SizeFlush {
		st.SizeFlushes = int64(nFull)
		st.DeadlineFlushes = st.Batches - st.SizeFlushes
	} else {
		st.DeadlineFlushes = st.Batches
	}
	st.Hist[b] += int64(nFull)
	if r > 0 {
		st.Hist[r]++
	}

	latencies := make([]serve.Ticks, 0, n)
	for j := 0; j < nFull; j++ {
		head := serve.Ticks(j) * serve.Ticks(b) * gap
		done := head + w + svcFull
		if done > st.Makespan {
			st.Makespan = done
		}
		for m := 0; m < b; m++ {
			lat := w - serve.Ticks(m)*gap + svcFull
			latencies = append(latencies, lat)
			st.SumLatency += lat
		}
	}
	st.BusyTicks = serve.Ticks(nFull) * svcFull
	if r > 0 {
		head := serve.Ticks(nFull) * serve.Ticks(b) * gap
		svc := cfg.Service.BatchTicks(r)
		done := head + cfg.MaxDelay + svc
		if done > st.Makespan {
			st.Makespan = done
		}
		st.BusyTicks += svc
		for m := 0; m < r; m++ {
			lat := cfg.MaxDelay - serve.Ticks(m)*gap + svc
			latencies = append(latencies, lat)
			st.SumLatency += lat
		}
	}
	st.FillPercentiles(latencies)
	return st, nil
}
