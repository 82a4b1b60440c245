package par

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// finishes runs f on its own goroutine and fails the test if it has not
// returned within a minute: a split that waits for a chunk nobody will run
// hangs instead of failing.
func finishes(t *testing.T, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("nested splits did not finish: a split is waiting for a chunk that no goroutine runs")
	}
}

// checkOnce fails unless every counter is exactly 1.
func checkOnce(t *testing.T, what string, hits []atomic.Int32) {
	t.Helper()
	for i := range hits {
		if h := hits[i].Load(); h != 1 {
			t.Fatalf("%s: index %d ran %d times, want once", what, i, h)
		}
	}
}

// TestNestedSplitsFinish: splits inside splits (Do inside ForGrain inside
// Do) finish and run every index once, however many workers are busy; so
// do four goroutines splitting at once, as dist.Engine's workers do when
// each runs its layers' loops.
func TestNestedSplitsFinish(t *testing.T) {
	const outer, n = 3, 40
	hits := make([]atomic.Int32, outer*n*2)
	finishes(t, func() {
		tasks := make([]func(), outer)
		for o := range tasks {
			tasks[o] = func() {
				ForGrain(n, 1, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						at := (o*n + i) * 2
						Do(func() { hits[at].Add(1) }, func() { hits[at+1].Add(1) })
					}
				})
			}
		}
		Do(tasks...)
	})
	checkOnce(t, "Do in ForGrain in Do", hits)

	const callers, calls, m = 4, 50, 3 * MinParallel
	raw := make([]atomic.Int32, callers*calls*m)
	finishes(t, func() {
		var wg sync.WaitGroup
		for c := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range calls {
					base := (c*calls + k) * m
					For(m, func(lo, hi int) {
						for i := lo; i < hi; i++ {
							raw[base+i].Add(1)
						}
					})
				}
			}()
		}
		wg.Wait()
	})
	checkOnce(t, "four goroutines splitting at once", raw)
}

// goid returns the calling goroutine's id, read from its stack header.
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestPanicFromEitherRunner: a chunk's panic reaches the caller, after the
// other chunk has run, both when a worker ran the panicking chunk and when
// the caller claimed it back. Which of the two runs it is a race, so each
// case retries until it has seen its runner.
func TestPanicFromEitherRunner(t *testing.T) {
	caller := goid()
	try := func(wait time.Duration) (ranOnCaller bool) {
		started := make(chan struct{})
		var other atomic.Bool
		var runner string
		func() {
			defer func() {
				if r := recover(); r != "chunk 1 failed" {
					t.Fatalf("recovered %v, want chunk 1's panic", r)
				}
			}()
			Do(func() {
				select { // hold chunk 0 so that an idle worker can start chunk 1
				case <-started:
				case <-time.After(wait):
				}
				other.Store(true)
			}, func() {
				runner = goid()
				close(started)
				panic("chunk 1 failed")
			})
		}()
		if !other.Load() {
			t.Fatal("chunk 0 did not run to completion")
		}
		return runner == caller
	}
	for attempt := 0; !try(0); attempt++ {
		if attempt == 1000 {
			t.Fatal("the caller never claimed chunk 1 back in 1000 splits")
		}
	}
	if MaxWorkers() < 2 {
		t.Skip("a worker runs chunks only with GOMAXPROCS >= 2")
	}
	for attempt := 0; try(100 * time.Millisecond); attempt++ {
		if attempt == 100 {
			t.Fatal("no worker ran chunk 1 in 100 splits")
		}
	}
}

// TestSplitsStartNoGoroutines: once the team is up, splitting starts no
// goroutine, neither while its chunks run nor after.
func TestSplitsStartNoGoroutines(t *testing.T) {
	var most atomic.Int64
	body := func(lo, hi int) {
		for n := int64(runtime.NumGoroutine()); ; {
			if m := most.Load(); n <= m || most.CompareAndSwap(m, n) {
				return
			}
		}
	}
	split := func() {
		ForGrain(4*MinParallel, MinParallel, body)
		Do(func() { body(0, 0) }, func() { body(0, 0) }, func() { body(0, 0) })
	}
	split() // starts the team
	before := runtime.NumGoroutine()
	most.Store(0)
	for range 1000 {
		split()
	}
	if after := int64(runtime.NumGoroutine()); most.Load() > int64(before) || after > int64(before) {
		t.Fatalf("1000 splits changed the goroutine count: %d before, %d at most while running, %d after",
			before, most.Load(), after)
	}
}

// TestWarmSplitAllocs bounds what one warm two-chunk ForGrain allocates:
// its split record, 1 allocation (the goroutine-per-chunk form took 5).
// testing.AllocsPerRun pins GOMAXPROCS to 1, under which ForGrain never
// splits, so this counts mallocs the same way at the test's GOMAXPROCS.
func TestWarmSplitAllocs(t *testing.T) {
	if MaxWorkers() < 2 {
		t.Skip("needs GOMAXPROCS >= 2 for the loop to split")
	}
	var sink atomic.Int64
	body := func(lo, hi int) { sink.Add(int64(hi - lo)) }
	split := func() { ForGrain(2*MinParallel, MinParallel, body) }
	split()
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		split()
	}
	runtime.ReadMemStats(&after)
	if got := float64(after.Mallocs-before.Mallocs) / runs; got > 1.5 {
		t.Fatalf("a warm two-chunk ForGrain allocates %.2f times, want 1", got)
	}
}

// BenchmarkForGrain times one call with an empty body: inline (the range
// is within the grain), split in two chunks, and two such splits nested in
// a two-task Do. At GOMAXPROCS 1 every form runs inline.
func BenchmarkForGrain(b *testing.B) {
	body := func(lo, hi int) {}
	for _, bc := range []struct {
		name string
		call func()
	}{
		{"inline", func() { ForGrain(MinParallel, MinParallel, body) }},
		{"two-chunks", func() { ForGrain(2*MinParallel, MinParallel, body) }},
		{"nested-in-Do", func() {
			Do(func() { ForGrain(2*MinParallel, MinParallel, body) },
				func() { ForGrain(2*MinParallel, MinParallel, body) })
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				bc.call()
			}
		})
	}
}
