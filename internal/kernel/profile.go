package kernel

import (
	"sync"
	"sync/atomic"
	"time"
)

// Phase identifies one hot-loop phase for the profiler.
type Phase int

// The profiled phases, in attribution priority order (highest first): when
// phases overlap across goroutines — a codec transform while workers still
// run GEMM under Config.Overlap — each instant is attributed to the
// highest-priority active phase, so the phase totals never double-count
// wall time.
const (
	PhaseCodec Phase = iota
	PhaseReduce
	PhaseConvert
	PhaseIm2col
	PhaseGemm
	NumPhases
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseCodec:
		return "codec"
	case PhaseReduce:
		return "reduce"
	case PhaseConvert:
		return "convert"
	case PhaseIm2col:
		return "im2col"
	case PhaseGemm:
		return "gemm"
	default:
		return "phase?"
	}
}

// prof is the process-global profiler. Profiling is opt-in and off by
// default: StartPhase costs one atomic load when disabled, so the
// instrumentation in tensor and dist is free in normal runs. When enabled,
// every phase transition settles the elapsed time since the previous
// transition onto the highest-priority phase active during it (exclusive
// attribution), which guarantees the per-phase totals of any window sum to
// at most the window's wall time. The state is global — one profiled
// engine at a time; concurrent profiled engines would blend their phases.
var prof struct {
	enabled atomic.Bool
	mu      sync.Mutex
	active  [NumPhases]int
	lastNS  int64
	acc     [NumPhases]int64
}

// profEpoch anchors the profiler's monotonic clock.
var profEpoch = time.Now()

func profNow() int64 { return int64(time.Since(profEpoch)) }

// settle attributes the time since the last transition to the
// highest-priority active phase (idle time is left unattributed) and
// advances the transition clock. Callers hold prof.mu and read now under
// it: a reading taken before a contended Lock is already stale when settle
// runs, and letting it move the transition clock backwards would attribute
// the interval it rewinds a second time. A stale now is therefore ignored.
func settle(now int64) {
	dt := now - prof.lastNS
	if dt <= 0 {
		return
	}
	prof.lastNS = now
	for p := Phase(0); p < NumPhases; p++ {
		if prof.active[p] > 0 {
			prof.acc[p] += dt
			return
		}
	}
}

// SetProfiling turns the global profiler on or off. Turning it on resets
// the active-span bookkeeping (spans straddling the toggle are dropped);
// accumulated totals persist until snapshotted, so callers diff snapshots
// rather than reading absolutes.
func SetProfiling(on bool) {
	prof.mu.Lock()
	defer prof.mu.Unlock()
	settle(profNow())
	for p := range prof.active {
		prof.active[p] = 0
	}
	prof.enabled.Store(on)
}

// Span is one active phase interval returned by StartPhase.
type Span struct {
	p  Phase
	on bool
}

// StartPhase opens a phase span on the global profiler. The returned span
// must be closed with End on the same goroutine's exit from the phase
// (typically via defer). When profiling is disabled this is a single
// atomic load.
func StartPhase(p Phase) Span {
	if !prof.enabled.Load() {
		return Span{}
	}
	prof.mu.Lock()
	settle(profNow())
	prof.active[p]++
	prof.mu.Unlock()
	return Span{p: p, on: true}
}

// End closes the span.
func (s Span) End() {
	if !s.on {
		return
	}
	prof.mu.Lock()
	settle(profNow())
	if prof.active[s.p] > 0 { // guard against a toggle mid-span
		prof.active[s.p]--
	}
	prof.mu.Unlock()
}

// ProfileSnapshot settles and returns the cumulative per-phase totals
// together with the profiler clock's current reading. Consumers measure a
// window by diffing two snapshots; using the returned clock as the
// window's wall time guarantees the phase deltas sum to at most it.
func ProfileSnapshot() (acc [NumPhases]int64, nowNS int64) {
	prof.mu.Lock()
	nowNS = profNow()
	settle(nowNS)
	acc = prof.acc
	prof.mu.Unlock()
	return acc, nowNS
}
