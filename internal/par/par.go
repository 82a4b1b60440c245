// Package par provides tiny data-parallel loop helpers used by the tensor
// and neural-network packages.
//
// The helpers split an index range into contiguous chunks and run them on
// the calling goroutine and a team of long-lived worker goroutines, one
// fewer than GOMAXPROCS, started on the first split and parked on a channel
// between splits (the team grows if GOMAXPROCS does, and never shrinks). A
// split offers itself to idle workers without blocking, runs chunk 0 on the
// caller, then claims back every chunk that no worker has started and runs
// it on the caller too: each chunk is claimed with one atomic add, so it
// runs exactly once, and the caller waits only for chunks that a worker is
// already running. A split never waits for a busy worker, so nested splits
// (a Do inside a ForGrain, loops called from many goroutines at once) cannot
// deadlock; they run on the caller when the team is busy. Work is only
// split when the range is large enough to amortize the hand-off, so small
// tensors stay on the caller's goroutine and remain cheap.
//
// A panic in a chunk or task does not kill the process from its goroutine:
// every chunk still runs to completion, then the first panic value is
// re-raised on the caller, where a recover (dist.Engine's worker recover,
// a test's) sees it as if the loop had run inline.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
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
	chunks := min((n+grain-1)/grain, workers)
	run(body, n, (n+chunks-1)/chunks, workers)
}

// Do runs every task, concurrently where the team has idle workers, and
// waits for all of them. It is used for coarse-grained fan-out such as
// per-worker gradient computation.
func Do(tasks ...func()) {
	switch len(tasks) {
	case 0:
		return
	case 1:
		tasks[0]()
		return
	}
	run(func(lo, _ int) { tasks[lo]() }, len(tasks), 1, MaxWorkers())
}

// split is one loop split: chunk i is body(i·size, min((i+1)·size, n)).
type split struct {
	body            func(lo, hi int)
	n, size, chunks int
	next            atomic.Int64 // the lowest chunk nobody has claimed
	left            atomic.Int64 // the chunks not yet finished
	done            sync.WaitGroup
	once            sync.Once
	panicked        bool
	value           any
}

// run splits [0, n) into chunks of size, runs them on the caller and on
// idle workers of the team, then re-raises the first panic, if any.
func run(body func(lo, hi int), n, size, procs int) {
	s := &split{body: body, n: n, size: size, chunks: (n + size - 1) / size}
	s.next.Store(1) // chunk 0 is the caller's
	s.left.Store(int64(s.chunks))
	s.done.Add(1) // released by whoever finishes the last chunk
	grow(procs)
offer:
	for range min(s.chunks, procs) - 1 {
		select {
		case idle <- s:
		default: // no worker is parked: the caller runs the rest
			break offer
		}
	}
	s.chunk(0)
	s.work()
	s.done.Wait()
	if s.panicked {
		panic(s.value)
	}
}

// work claims and runs chunks until none is left to claim.
func (s *split) work() {
	for {
		i := s.next.Add(1) - 1
		if i >= int64(s.chunks) {
			return
		}
		s.chunk(int(i))
	}
}

// chunk runs chunk i, keeping its panic, if any, for the caller.
func (s *split) chunk(i int) {
	defer func() {
		if r := recover(); r != nil {
			s.once.Do(func() { s.panicked, s.value = true, r })
		}
		if s.left.Add(-1) == 0 {
			s.done.Done()
		}
	}()
	lo := i * s.size
	s.body(lo, min(lo+s.size, s.n))
}

// The team: teamSize workers, each parked on idle between splits. They
// live as long as the process, like the runtime's own background workers:
// nothing stops them, and a parked worker costs only its stack. idle is
// unbuffered, so a send succeeds only while some worker is parked
// receiving: offering a split never blocks and never queues behind a busy
// worker.
var (
	idle     = make(chan *split)
	teamMu   sync.Mutex
	teamSize atomic.Int64
)

// grow starts workers until the team has procs − 1 of them.
func grow(procs int) {
	want := int64(procs - 1)
	if teamSize.Load() >= want {
		return
	}
	teamMu.Lock()
	defer teamMu.Unlock()
	for ; teamSize.Load() < want; teamSize.Add(1) {
		go worker()
	}
}

// worker runs the chunks of every split offered to it, forever.
func worker() {
	for s := range idle {
		s.work()
	}
}
