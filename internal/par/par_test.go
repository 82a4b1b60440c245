package par

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	const n = 100000
	hits := make([]int32, n)
	For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestForZeroAndNegative(t *testing.T) {
	called := false
	For(0, func(lo, hi int) { called = true })
	For(-5, func(lo, hi int) { called = true })
	if called {
		t.Fatal("body must not run for empty ranges")
	}
}

func TestForSmallRunsInline(t *testing.T) {
	calls := 0
	ForGrain(10, 100, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Fatalf("inline call got [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("small range split into %d calls", calls)
	}
}

// Property: chunks returned by ForGrain are disjoint, ordered within
// themselves, and cover [0, n) for arbitrary n and grain.
func TestForGrainPartitionProperty(t *testing.T) {
	f := func(nn uint16, gg uint8) bool {
		n := int(nn % 5000)
		grain := int(gg)
		var mu sync.Mutex
		covered := make([]bool, n)
		ok := true
		ForGrain(n, grain, func(lo, hi int) {
			if lo < 0 || hi > n || lo >= hi {
				ok = false
				return
			}
			mu.Lock()
			for i := lo; i < hi; i++ {
				if covered[i] {
					ok = false
				}
				covered[i] = true
			}
			mu.Unlock()
		})
		if !ok {
			return false
		}
		for _, c := range covered {
			if !c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDoRunsAll(t *testing.T) {
	var n int32
	Do(
		func() { atomic.AddInt32(&n, 1) },
		func() { atomic.AddInt32(&n, 10) },
		func() { atomic.AddInt32(&n, 100) },
	)
	if n != 111 {
		t.Fatalf("Do: n = %d, want 111", n)
	}
}

func TestMaxWorkersPositive(t *testing.T) {
	if MaxWorkers() < 1 {
		t.Fatal("MaxWorkers must be >= 1")
	}
}

// TestForGrainGrainExceedsN: a grain larger than the range must collapse
// to one inline call covering the whole range.
func TestForGrainGrainExceedsN(t *testing.T) {
	for _, tc := range []struct{ n, grain int }{{1, 2}, {10, 11}, {100, 1 << 20}, {5, 5}} {
		var calls [][2]int
		ForGrain(tc.n, tc.grain, func(lo, hi int) {
			calls = append(calls, [2]int{lo, hi})
		})
		if len(calls) != 1 || calls[0] != [2]int{0, tc.n} {
			t.Fatalf("n=%d grain=%d: calls %v, want one inline [0,%d)", tc.n, tc.grain, calls, tc.n)
		}
	}
}

// TestForGrainEmptyRange: n == 0 (and negative n) must not invoke the body
// for any grain, including degenerate ones.
func TestForGrainEmptyRange(t *testing.T) {
	for _, grain := range []int{-1, 0, 1, 1000} {
		ForGrain(0, grain, func(lo, hi int) { t.Fatalf("body ran for n=0, grain=%d", grain) })
		ForGrain(-3, grain, func(lo, hi int) { t.Fatalf("body ran for n=-3, grain=%d", grain) })
	}
}

// TestForGrainRounding pins the chunk geometry: chunks are contiguous,
// ascending once sorted, all but the last share one size (the rounded-up
// n/chunks), and the chunk count never exceeds MaxWorkers — the grain
// rounding cases (grain dividing n, grain not dividing n, grain of 1).
func TestForGrainRounding(t *testing.T) {
	for _, tc := range []struct{ n, grain int }{
		{100, 10}, {100, 7}, {101, 10}, {99, 100}, {4096, 1}, {5000, 2048}, {2049, 2048},
	} {
		var mu sync.Mutex
		var spans [][2]int
		ForGrain(tc.n, tc.grain, func(lo, hi int) {
			mu.Lock()
			spans = append(spans, [2]int{lo, hi})
			mu.Unlock()
		})
		sort.Slice(spans, func(i, j int) bool { return spans[i][0] < spans[j][0] })
		if spans[0][0] != 0 || spans[len(spans)-1][1] != tc.n {
			t.Fatalf("n=%d grain=%d: spans %v do not cover [0,%d)", tc.n, tc.grain, spans, tc.n)
		}
		if len(spans) > MaxWorkers() {
			t.Fatalf("n=%d grain=%d: %d chunks exceed MaxWorkers %d", tc.n, tc.grain, len(spans), MaxWorkers())
		}
		size := spans[0][1] - spans[0][0]
		for i, s := range spans {
			if s[1] <= s[0] {
				t.Fatalf("n=%d grain=%d: empty span %v", tc.n, tc.grain, s)
			}
			if i > 0 && s[0] != spans[i-1][1] {
				t.Fatalf("n=%d grain=%d: gap between %v and %v", tc.n, tc.grain, spans[i-1], s)
			}
			if i < len(spans)-1 && s[1]-s[0] != size {
				t.Fatalf("n=%d grain=%d: non-final span %v has size %d, want %d", tc.n, tc.grain, s, s[1]-s[0], size)
			}
		}
		if last := spans[len(spans)-1]; last[1]-last[0] > size {
			t.Fatalf("n=%d grain=%d: final span %v larger than the others (%d)", tc.n, tc.grain, last, size)
		}
	}
}

// TestChunkPanicReachesCaller: a panic in one chunk of a split loop (or one
// task of Do) is re-raised on the caller after every other chunk has run,
// so the caller's recover sees it instead of the process dying.
func TestChunkPanicReachesCaller(t *testing.T) {
	if MaxWorkers() < 2 {
		t.Skip("needs GOMAXPROCS >= 2 for the loop to split")
	}
	catch := func(f func()) (r any) {
		defer func() { r = recover() }()
		f()
		return nil
	}
	const n = 64
	var done atomic.Int32
	r := catch(func() {
		ForGrain(n, 1, func(lo, hi int) {
			if lo == 0 {
				panic("chunk 0 failed")
			}
			done.Add(int32(hi - lo))
		})
	})
	if r != "chunk 0 failed" {
		t.Fatalf("recovered %v, want the chunk's panic value", r)
	}
	chunks := min(n, MaxWorkers())
	if first := (n + chunks - 1) / chunks; done.Load() != int32(n-first) {
		t.Fatalf("other chunks covered %d rows, want %d", done.Load(), n-first)
	}

	var ran atomic.Int32
	r = catch(func() {
		Do(func() { ran.Add(1) }, func() { panic("task failed") }, func() { ran.Add(1) })
	})
	if r != "task failed" || ran.Load() != 2 {
		t.Fatalf("Do: recovered %v with %d other tasks run, want the task's panic and 2", r, ran.Load())
	}
}
