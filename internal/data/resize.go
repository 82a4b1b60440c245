package data

import (
	"fmt"
	"strconv"
	"strings"
)

// ResolutionPhase is one contiguous epoch range trained at a fixed
// resolution. From is inclusive; To is exclusive, with To == -1 meaning
// open-ended (the schedule's final phase).
type ResolutionPhase struct {
	H, W     int
	From, To int
}

// Epochs returns the phase length clipped to a total epoch budget, zero if
// the phase starts at or beyond the budget.
func (p ResolutionPhase) Epochs(budget int) int {
	to := p.To
	if to < 0 || to > budget {
		to = budget
	}
	if to <= p.From {
		return 0
	}
	return to - p.From
}

// ResolutionSchedule is a per-epoch (H, W) plan: the progressive-resolution
// curriculum of the ENTR hypothesis, applied by the trainer when
// batches are materialized. Phases tile the epoch axis contiguously from 0
// with an open-ended final phase, so At is total — every replica asks for
// the same epoch and therefore switches resolution in lockstep, which keeps
// shard/span logic and bit-identity untouched.
type ResolutionSchedule struct {
	phases []ResolutionPhase
}

// FixedResolution is the trivial single-phase schedule: every epoch at h×w.
func FixedResolution(h, w int) *ResolutionSchedule {
	if h <= 0 || w <= 0 {
		panic(fmt.Sprintf("data: FixedResolution(%d,%d) must be positive", h, w))
	}
	return &ResolutionSchedule{phases: []ResolutionPhase{{H: h, W: w, From: 0, To: -1}}}
}

// NewResolutionSchedule builds a schedule from explicit phases, validating
// the tiling contract: first phase starts at epoch 0, each phase starts
// where the previous ends, only the final phase is open-ended (To == -1),
// and every resolution is positive.
func NewResolutionSchedule(phases []ResolutionPhase) (*ResolutionSchedule, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("data: resolution schedule needs at least one phase")
	}
	next := 0
	for i, p := range phases {
		if p.H <= 0 || p.W <= 0 {
			return nil, fmt.Errorf("data: resolution schedule phase %d: resolution %dx%d must be positive", i, p.H, p.W)
		}
		if p.From != next {
			return nil, fmt.Errorf("data: resolution schedule phase %d starts at epoch %d, want %d (phases must tile contiguously from 0)", i, p.From, next)
		}
		if i == len(phases)-1 {
			if p.To != -1 {
				return nil, fmt.Errorf("data: resolution schedule's final phase must be open-ended")
			}
		} else {
			if p.To <= p.From {
				return nil, fmt.Errorf("data: resolution schedule phase %d is empty (epochs [%d,%d))", i, p.From, p.To)
			}
			next = p.To
		}
	}
	return &ResolutionSchedule{phases: append([]ResolutionPhase(nil), phases...)}, nil
}

// ParseResolutionSchedule parses the cmd/train schedule syntax: a
// comma-separated list of HxW@range phases where range is an inclusive
// epoch span "a-b" or an open tail "a+". A bare "HxW" is shorthand for the
// whole run. Example (the ENTR curriculum): "12x12@0-3,24x24@4+" trains
// epochs 0–3 at 12×12 and every later epoch at 24×24.
func ParseResolutionSchedule(s string) (*ResolutionSchedule, error) {
	parts := strings.Split(strings.TrimSpace(s), ",")
	if len(parts) == 1 && !strings.Contains(parts[0], "@") {
		h, w, err := parseHxW(parts[0])
		if err != nil {
			return nil, err
		}
		return FixedResolution(h, w), nil
	}
	phases := make([]ResolutionPhase, 0, len(parts))
	for _, part := range parts {
		res, span, ok := strings.Cut(strings.TrimSpace(part), "@")
		if !ok {
			return nil, fmt.Errorf("data: resolution phase %q: want HxW@range", part)
		}
		h, w, err := parseHxW(res)
		if err != nil {
			return nil, err
		}
		p := ResolutionPhase{H: h, W: w}
		switch {
		case strings.HasSuffix(span, "+"):
			from, err := strconv.Atoi(strings.TrimSuffix(span, "+"))
			if err != nil {
				return nil, fmt.Errorf("data: resolution phase %q: bad epoch %q", part, span)
			}
			p.From, p.To = from, -1
		case strings.Contains(span, "-"):
			a, b, _ := strings.Cut(span, "-")
			from, err1 := strconv.Atoi(a)
			to, err2 := strconv.Atoi(b)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("data: resolution phase %q: bad epoch range %q", part, span)
			}
			p.From, p.To = from, to+1 // inclusive syntax, exclusive storage
		default:
			epoch, err := strconv.Atoi(span)
			if err != nil {
				return nil, fmt.Errorf("data: resolution phase %q: bad epoch range %q", part, span)
			}
			p.From, p.To = epoch, epoch+1
		}
		phases = append(phases, p)
	}
	return NewResolutionSchedule(phases)
}

func parseHxW(s string) (int, int, error) {
	a, b, ok := strings.Cut(strings.TrimSpace(s), "x")
	if !ok {
		return 0, 0, fmt.Errorf("data: resolution %q: want HxW", s)
	}
	h, err1 := strconv.Atoi(a)
	w, err2 := strconv.Atoi(b)
	if err1 != nil || err2 != nil || h <= 0 || w <= 0 {
		return 0, 0, fmt.Errorf("data: resolution %q: want positive HxW", s)
	}
	return h, w, nil
}

// At returns the (H, W) the schedule assigns to an epoch. Total for any
// epoch ≥ 0 by the tiling contract.
func (s *ResolutionSchedule) At(epoch int) (h, w int) {
	for _, p := range s.phases {
		if epoch >= p.From && (p.To < 0 || epoch < p.To) {
			return p.H, p.W
		}
	}
	// Unreachable for epoch ≥ 0 on a validated schedule; clamp negatives
	// to the first phase.
	return s.phases[0].H, s.phases[0].W
}

// Phases returns a copy of the schedule's phases.
func (s *ResolutionSchedule) Phases() []ResolutionPhase {
	return append([]ResolutionPhase(nil), s.phases...)
}

// PhasesIn clips the schedule to a finite epoch budget, dropping phases
// beyond it and closing the final phase at the budget. This is the form the
// cluster simulator prices.
func (s *ResolutionSchedule) PhasesIn(epochs int) []ResolutionPhase {
	var out []ResolutionPhase
	for _, p := range s.phases {
		if n := p.Epochs(epochs); n > 0 {
			p.To = p.From + n
			out = append(out, p)
		}
	}
	return out
}

// String renders the schedule back in the parse syntax.
func (s *ResolutionSchedule) String() string {
	if len(s.phases) == 1 {
		return fmt.Sprintf("%dx%d", s.phases[0].H, s.phases[0].W)
	}
	var b strings.Builder
	for i, p := range s.phases {
		if i > 0 {
			b.WriteByte(',')
		}
		if p.To < 0 {
			fmt.Fprintf(&b, "%dx%d@%d+", p.H, p.W, p.From)
		} else {
			fmt.Fprintf(&b, "%dx%d@%d-%d", p.H, p.W, p.From, p.To-1)
		}
	}
	return b.String()
}
