// Package par provides tiny data-parallel loop helpers used by the tensor
// and neural-network packages.
//
// The helpers split an index range into contiguous chunks and run each chunk
// on its own goroutine, mirroring the "launch one piece per CPU and drain a
// channel" idiom. Work is only parallelized when the range is large enough to
// amortize goroutine startup, so small tensors stay on the caller's
// goroutine and remain cheap.
//
// A panic in a chunk or task does not kill the process from its goroutine:
// every chunk still runs to completion, then the first panic value is
// re-raised on the caller, where a recover (dist.Engine's worker recover,
// a test's) sees it as if the loop had run inline.
package par

import (
	"runtime"
	"sync"
)

// MinParallel is the smallest range size worth splitting across goroutines.
// Below this the synchronization overhead dominates any speedup.
const MinParallel = 2048

// MaxWorkers reports the degree of parallelism used by For: the number of
// usable CPUs as configured by GOMAXPROCS.
func MaxWorkers() int {
	return runtime.GOMAXPROCS(0)
}

// For runs body(lo, hi) over disjoint subranges covering [0, n). The body
// must be safe to call concurrently on disjoint ranges. For small n the body
// is invoked once on the calling goroutine.
func For(n int, body func(lo, hi int)) {
	ForGrain(n, MinParallel, body)
}

// ForGrain is For with an explicit minimum chunk size. grain <= 0 means use
// the default.
func ForGrain(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = MinParallel
	}
	workers := MaxWorkers()
	if workers <= 1 || n <= grain {
		body(0, n)
		return
	}
	chunks := (n + grain - 1) / grain
	if chunks > workers {
		chunks = workers
	}
	size := (n + chunks - 1) / chunks
	var g group
	for lo := 0; lo < n; lo += size {
		hi := min(lo+size, n)
		g.run(func() { body(lo, hi) })
	}
	g.wait()
}

// Do runs every task concurrently and waits for all of them. It is used for
// coarse-grained fan-out such as per-worker gradient computation.
func Do(tasks ...func()) {
	if len(tasks) == 1 {
		tasks[0]()
		return
	}
	var g group
	for _, t := range tasks {
		g.run(t)
	}
	g.wait()
}

// group runs functions on their own goroutines and keeps the first panic
// among them for wait to re-raise on the caller.
type group struct {
	wg       sync.WaitGroup
	once     sync.Once
	panicked bool
	value    any
}

func (g *group) run(f func()) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				g.once.Do(func() { g.panicked, g.value = true, r })
			}
		}()
		f()
	}()
}

// wait blocks until every function has returned, then re-raises the first
// panic, if any.
func (g *group) wait() {
	g.wg.Wait()
	if g.panicked {
		panic(g.value)
	}
}
