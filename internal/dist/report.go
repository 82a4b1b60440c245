package dist

// Report is the engine's ledger: everything it counts about the schedules it
// executed, in one value. The engine keeps two — the whole run and the most
// recent training step — and writes both through one add, so a counter and
// its per-step view cannot drift apart. The named accessors (Stats,
// StepStats, StepOverlapStats, …) are views of single fields.
type Report struct {
	// Comm is the aggregate schedule: messages, bytes, latency rounds,
	// retries and stalls.
	Comm CommStats
	// TierComm splits Comm by fabric tier. Reported only when
	// Config.Topology arranged the workers hierarchically (then
	// TierComm.Total() == Comm); zero for flat configurations.
	TierComm TierStats
	// Overlap splits Comm's rounds and bytes into hidden behind the backward
	// pass versus exposed: Overlap.Rounds() == Comm.Steps and
	// Overlap.TotalBytes() == Comm.Bytes always. Nothing is hidden unless
	// Config.Overlap is set.
	Overlap OverlapStats
	// LocalSGD counts local steps and averaging rounds. Zero unless the
	// engine is driven through LocalStep.
	LocalSGD LocalSGDStats
	// Membership is the elastic-membership accounting: evictions, joins,
	// rebalances and the steps run at each world size.
	Membership MembershipStats
	// Profile splits hot-loop wall time into phases that sum exactly to the
	// measured wall. Zero unless Config.Profile is set.
	Profile ProfileStats
}

// Add accumulates o into r, ledger by ledger.
func (r *Report) Add(o Report) {
	r.Comm.Add(o.Comm)
	r.TierComm.Add(o.TierComm)
	r.Overlap.Add(o.Overlap)
	r.LocalSGD.Add(o.LocalSGD)
	r.Membership.Add(o.Membership)
	r.Profile.Add(o.Profile)
}

// file accounts one per-tier schedule into the tier split, its aggregate
// into the flat counters, and its rounds and bytes under the hidden or the
// exposed side of the overlap split — which is what keeps Comm ==
// TierComm.Total() and the overlap invariant true of every Report.
func (r *Report) file(t TierStats, hidden bool) {
	s := t.Total()
	r.TierComm.Add(t)
	r.Comm.Add(s)
	r.Overlap.add(s, hidden)
}

// add is the only write to the engine's ledgers: one delta lands in the
// cumulative report and in the current step's.
func (e *Engine) add(delta Report) {
	e.total.Add(delta)
	e.last.Add(delta)
}

// view is the single reporting edge between the engine's one topology and
// its two configurations: a flat world runs as the P×1 hierarchy, whose tier
// split (all of it on the inter tier) is bookkeeping, not something the
// caller configured — it stays unreported.
func (e *Engine) view(r Report) Report {
	if e.cfg.Topology == nil {
		r.TierComm = TierStats{}
	}
	return r
}

// Report returns the cumulative ledger of the run.
func (e *Engine) Report() Report { return e.view(e.total) }

// StepReport returns the ledger of the most recent training step: the step
// entry point (ComputeGradient or LocalStep, including any admission that
// opened it and any eviction that closed it) plus every BroadcastWeights
// since.
func (e *Engine) StepReport() Report { return e.view(e.last) }

// Stats returns the cumulative communication counters.
func (e *Engine) Stats() CommStats { return e.total.Comm }

// StepStats returns the communication counters of the most recent training
// step (see StepReport).
func (e *Engine) StepStats() CommStats { return e.last.Comm }

// StepTierStats returns the per-tier counters of the most recent training
// step, the hierarchical split of StepStats.
func (e *Engine) StepTierStats() TierStats { return e.StepReport().TierComm }

// StepOverlapStats returns the hidden/exposed split of the most recent
// training step, the overlap view of StepStats.
func (e *Engine) StepOverlapStats() OverlapStats { return e.last.Overlap }

// LocalSGD returns the cumulative local-SGD counters.
func (e *Engine) LocalSGD() LocalSGDStats { return e.total.LocalSGD }

// Membership returns the cumulative elastic-membership accounting.
func (e *Engine) Membership() MembershipStats { return e.total.Membership }

// Profile returns the cumulative phase profile.
func (e *Engine) Profile() ProfileStats { return e.total.Profile }

// StepProfile returns the phase profile of the most recent training step,
// the profiled view of StepStats.
func (e *Engine) StepProfile() ProfileStats { return e.last.Profile }
