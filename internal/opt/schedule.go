// Package opt implements the update rules and the learning-rate schedule of
// the paper's large-batch training recipe:
//
//   - SGD with momentum and weight decay (the baseline),
//   - LARS, Layer-wise Adaptive Rate Scaling (You/Gitman/Ginsburg 2017), the
//     paper's core enabling algorithm — the same momentum update at a
//     per-layer rate,
//   - the linear scaling rule (Krizhevsky 2014),
//   - gradual warmup (Goyal et al. 2017), and
//   - polynomial decay with power 2 ("poly policy"), the schedule used in
//     every experiment table of the paper,
//
// plus the dynamic loss scaler of mixed-precision training.
package opt

import (
	"fmt"
	"math"
)

// Schedule maps a global iteration index to a learning rate. Schedules are
// pure functions of (step, totalSteps) so that every worker in a
// data-parallel run computes the same rate without coordination.
type Schedule interface {
	// LR returns the learning rate for step ∈ [0, totalSteps).
	LR(step, totalSteps int) float64
	fmt.Stringer
}

// Poly is the polynomial decay policy η(t) = Base·(1 − t/T)^Power. The paper
// uses Power = 2 throughout (Tables 5 and 7).
type Poly struct {
	Base  float64
	Power float64
}

// LR implements Schedule.
func (p Poly) LR(step, totalSteps int) float64 {
	if totalSteps <= 0 {
		return p.Base
	}
	frac := 1 - float64(step)/float64(totalSteps)
	if frac < 0 {
		frac = 0
	}
	pw := p.Power
	if pw == 0 {
		pw = 1
	}
	return p.Base * math.Pow(frac, pw)
}

func (p Poly) String() string { return fmt.Sprintf("poly(%g, power=%g)", p.Base, p.Power) }

// Warmup wraps another schedule with Goyal-style gradual warmup: step s <
// WarmupSteps runs at (s+1)/WarmupSteps of the rate Inner reaches at
// WarmupSteps, after which Inner takes over. Warmup exists
// because the linear scaling rule demands a very large rate that diverges if
// applied from step 0 (the paper's Table 5 failures at LR ≥ 0.07).
type Warmup struct {
	Inner       Schedule
	WarmupSteps int
}

// LR implements Schedule.
func (w Warmup) LR(step, totalSteps int) float64 {
	if step >= w.WarmupSteps || w.WarmupSteps <= 0 {
		return w.Inner.LR(step, totalSteps)
	}
	target := w.Inner.LR(w.WarmupSteps, totalSteps)
	return target * (float64(step+1) / float64(w.WarmupSteps))
}

func (w Warmup) String() string {
	return fmt.Sprintf("warmup(%d steps, %s)", w.WarmupSteps, w.Inner)
}

// LinearScalingRule implements Krizhevsky's rule: when the batch grows from
// baseBatch to batch, the base learning rate grows proportionally.
func LinearScalingRule(baseLR float64, baseBatch, batch int) float64 {
	return baseLR * float64(batch) / float64(baseBatch)
}
