package kernel

import (
	"sync"
	"testing"
	"time"
)

func TestProfilerDisabledIsInert(t *testing.T) {
	SetProfiling(false)
	before, _ := ProfileSnapshot()
	sp := StartPhase(PhaseGemm)
	time.Sleep(2 * time.Millisecond)
	sp.End()
	after, _ := ProfileSnapshot()
	if before != after {
		t.Fatalf("disabled profiler accumulated: %v -> %v", before, after)
	}
}

func TestProfilerAttributesPhases(t *testing.T) {
	SetProfiling(true)
	defer SetProfiling(false)
	base, start := ProfileSnapshot()
	sp := StartPhase(PhaseGemm)
	time.Sleep(5 * time.Millisecond)
	sp.End()
	sp = StartPhase(PhaseReduce)
	time.Sleep(3 * time.Millisecond)
	sp.End()
	acc, end := ProfileSnapshot()
	wall := end - start
	gemm := acc[PhaseGemm] - base[PhaseGemm]
	reduce := acc[PhaseReduce] - base[PhaseReduce]
	if gemm < int64(4*time.Millisecond) {
		t.Fatalf("gemm span under-attributed: %v", time.Duration(gemm))
	}
	if reduce < int64(2*time.Millisecond) {
		t.Fatalf("reduce span under-attributed: %v", time.Duration(reduce))
	}
	var total int64
	for p := Phase(0); p < NumPhases; p++ {
		total += acc[p] - base[p]
	}
	if total > wall {
		t.Fatalf("attributed %v exceeds window wall %v", time.Duration(total), time.Duration(wall))
	}
}

// TestProfilerExclusiveAttribution: concurrent spans from many goroutines
// never attribute more total time than the window's wall clock — the
// property the engine's sums-to-wall ProfileStats invariant rests on.
func TestProfilerExclusiveAttribution(t *testing.T) {
	SetProfiling(true)
	defer SetProfiling(false)
	base, start := ProfileSnapshot()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			phase := Phase(g % int(NumPhases))
			for i := 0; i < 50; i++ {
				sp := StartPhase(phase)
				time.Sleep(100 * time.Microsecond)
				sp.End()
			}
		}()
	}
	wg.Wait()
	acc, end := ProfileSnapshot()
	wall := end - start
	var total int64
	for p := Phase(0); p < NumPhases; p++ {
		total += acc[p] - base[p]
	}
	if total > wall {
		t.Fatalf("exclusive attribution violated: %v attributed in a %v window",
			time.Duration(total), time.Duration(wall))
	}
	if total == 0 {
		t.Fatal("nothing attributed despite active spans")
	}
}

// TestSettleIgnoresStaleClock: a transition that reads the clock and is then
// descheduled before it takes the lock hands settle a timestamp older than
// the last transition. With one phase active throughout, the attributed
// time must still equal the elapsed time — the stale reading must not
// rewind the transition clock and have its interval attributed twice.
func TestSettleIgnoresStaleClock(t *testing.T) {
	prof.mu.Lock()
	defer prof.mu.Unlock()
	saved := struct {
		active [NumPhases]int
		lastNS int64
		acc    [NumPhases]int64
	}{prof.active, prof.lastNS, prof.acc}
	defer func() { prof.active, prof.lastNS, prof.acc = saved.active, saved.lastNS, saved.acc }()

	prof.active = [NumPhases]int{PhaseGemm: 1}
	prof.lastNS = 1000
	prof.acc = [NumPhases]int64{}
	for _, now := range []int64{1100, 1050, 1100, 1020, 1150} { // 1050 and 1020 are stale
		settle(now)
	}
	if got, want := prof.acc[PhaseGemm], int64(150); got != want {
		t.Fatalf("attributed %d ns over an elapsed %d ns", got, want)
	}
}

func TestPhaseString(t *testing.T) {
	for p, want := range map[Phase]string{PhaseGemm: "gemm", PhaseIm2col: "im2col", PhaseReduce: "reduce", PhaseCodec: "codec"} {
		if p.String() != want {
			t.Fatalf("Phase(%d).String() = %q, want %q", p, p, want)
		}
	}
}
