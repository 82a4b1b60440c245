package harness

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/models"
)

// Commentary returns the closing section of EXPERIMENTS.md: a short
// residual analysis of the reproduction against the paper's communication
// tables (Table 2, Table 11, Figures 8-10) and the calibrated simulator's
// anchors. Every number in it is recomputed from the analytic models, so a
// full regeneration reproduces the section bit-identically. (The docs-drift
// CI job compares only the "### " table sections, not this commentary —
// refresh it with a full `experiments -markdown -o EXPERIMENTS.md` run
// whenever the underlying constants change.)
func Commentary(markdown bool) string {
	resnet := models.ResNet50Spec()
	const epochs, imagenet = 100, 1280000

	// Table 2's iteration arithmetic is an identity (E·n/B), so the
	// residual is exactly zero; quote one row as the anchor.
	iters4096 := comm.Iterations(epochs, imagenet, 4096)

	// Figure 9/10 arithmetic: messages and volume are proportional to
	// iterations; quote the 64x volume collapse from B=512 to B=32768.
	volSmall := comm.TotalVolumeBytes(resnet.WeightBytes(), epochs, imagenet, 512)
	volLarge := comm.TotalVolumeBytes(resnet.WeightBytes(), epochs, imagenet, 32768)

	// Hierarchical pricing: one ResNet-50 allreduce over 64 workers, flat
	// 10GbE ring versus 8x8 NVLink-intra + 10GbE-inter composition.
	h := dist.Hierarchy{Nodes: 8, PerNode: 8, Intra: dist.Ring, Inter: dist.Ring}
	flatMS := 1e3 * comm.Intel10GbE.AllreduceTime(dist.Ring, 64, resnet.WeightBytes())
	hierMS := 1e3 * comm.AllreduceTime(cluster.NVLinkHybrid, comm.Intel10GbE, h, nil, resnet.WeightBytes())

	// Overlap pricing: the paper's 512-KNL ResNet-50 row with bucket
	// reductions pipelined against the backward pass, versus serial
	// communication and versus the old half-compute heuristic.
	knl := cluster.KNLCluster(512)
	plain := cluster.Simulate(knl, resnet, 32768, 90, 1280000)
	knl.Overlap = true
	over := cluster.Simulate(knl, resnet, 32768, 90, 1280000)
	oldBound := plain.CommSec - plain.CompSec/2
	if oldBound < 0 {
		oldBound = 0
	}

	var b strings.Builder
	if markdown {
		b.WriteString("## Commentary — residuals vs the paper's communication tables\n\n")
	} else {
		b.WriteString("== Commentary: residuals vs the paper's communication tables ==\n")
	}
	fmt.Fprintf(&b, `The analytic exhibits reproduce the paper's communication arithmetic
exactly, because they are the same closed forms: Table 2's iteration
count is the identity E*n/B (B=4096 gives %d iterations, the paper's
31,250 — zero residual), Table 11 quotes the published alpha-beta fabric
constants verbatim, and Figures 8-10 are proportionality identities on
top of them (communication volume falls %.0fx from B=512 to B=32768 at
fixed epochs, the paper's headline argument for large batches).

The measured Allreduce study is the one place the schedule is executed
rather than priced: internal/dist's counters match comm's closed forms
exactly (zero residual, enforced by tests), including the hierarchical
rows, whose per-tier counters match comm.ExpectedTierStats. Residuals
against the paper's *wall-clock* tables live entirely in the calibrated
simulator (Tables 1, 8, 9): efficiency curves are fitted per
device/model family against published anchors, and the anchor tests
accept a 0.55-1.6x band — see the simulated sections above for the
per-row numbers.

Two-tier composition prices what the paper's fastest clusters actually
do (reduce inside the node before touching the cluster fabric): one
ResNet-50 allreduce over 64 workers costs %.1f ms as a flat 10GbE ring
but %.1f ms as 8 nodes of 8 with an NVLink-class intra tier — the inter
fabric then only carries the 8-leader exchange. The paper reports no
per-tier breakdown to diff against; the closed forms are instead
cross-checked against the executing engine, which is the stronger check
available in a reproduction.

Overlap, new in this revision, moves the minutes-scale claim from
"communication is small" to "communication is hidden": the engine fires
each bucket's reduction the moment its layers' gradients are final on
every shard, while earlier layers are still back-propagating, and the
Overlap study shows the measured hidden/exposed split matching
comm.ExpectedOverlapStats counter-for-counter. Only the bucket covering
the first layers — ready exactly when the backward ends — plus weight
broadcasts and recovery traffic stay exposed. Priced on the paper's
512-KNL ResNet-50 row (B=32K), the serial allreduce costs %.1f ms per
iteration; the old max(0, t_comm − t_comp/2) heuristic called %.1f ms
of it exposed, while the bucket-level pipeline exposes %.1f ms —
never more than the old bound when that bound is positive, and honest
about the unhideable tail (the old heuristic rounded it to zero) when
it is not.
`, iters4096, float64(volSmall)/float64(volLarge), flatMS, hierMS,
		1e3*plain.CommSec, 1e3*oldBound, 1e3*over.CommSec)
	return b.String()
}
