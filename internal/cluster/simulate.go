package cluster

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/models"
)

// Cluster is a homogeneous set of devices joined by one fabric — or, when
// PerNode groups them, by two: a fast intra-node fabric and the cluster
// fabric across nodes.
type Cluster struct {
	Machine Machine
	Count   int
	// Network is the cluster fabric: the only fabric when flat, the
	// inter-node (leader-exchange) fabric when PerNode > 1.
	Network comm.Network
	// Algo is the allreduce pattern on Network: the whole collective when
	// flat, the cross-node leader exchange when PerNode > 1.
	Algo dist.Algorithm
	// Overlap models communication/computation overlap (Das et al. 2016;
	// Goyal et al. 2017) at bucket granularity, mirroring the engine's
	// overlap scheduler (dist.Config.Overlap): the gradient is split into
	// OverlapBuckets near-equal buckets, each becomes ready at its share
	// of the backward pass (from the tail of the network forwards), and
	// the bucket allreduces pipeline against the remaining backward — for
	// hierarchical clusters with the inter exchange of bucket k
	// overlapping the intra reduce of bucket k+1 on the disjoint fabrics.
	// The exposed communication per iteration is what the pipeline cannot
	// hide (at minimum the first layers' bucket, which is only ready when
	// the backward ends); Estimate.Buckets reports the per-bucket
	// timeline.
	Overlap bool
	// OverlapBuckets is the number of gradient buckets the overlap model
	// pipelines; 0 defaults to DefaultOverlapBuckets. Ignored unless
	// Overlap is set.
	OverlapBuckets int

	// PerNode groups the devices into nodes of this size; > 1 prices the
	// allreduce hierarchically — IntraAlgo over IntraNetwork inside each
	// node feeding Algo over Network across the node leaders — matching
	// the two-tier schedule internal/dist executes. It must divide Count.
	// 0 or 1 keeps the flat single-fabric model.
	PerNode int
	// IntraNetwork is the within-node fabric (e.g. NVLink inside a
	// DGX-1) used when PerNode > 1.
	IntraNetwork comm.Network
	// IntraAlgo is the within-node allreduce pattern when PerNode > 1
	// (Ring is the usual choice on fast local fabrics).
	IntraAlgo dist.Algorithm
}

// DefaultOverlapBuckets is the bucket count the overlap model uses when
// Cluster.OverlapBuckets is zero — fine enough that the unhideable first
// bucket is a small fraction of the payload, coarse enough that per-bucket
// latency (the alpha terms) does not dominate.
const DefaultOverlapBuckets = 16

// backwardShare is the fraction of an iteration's compute spent in the
// backward pass — the window communication can hide in. Training costs
// roughly one forward plus two forward-equivalents of backward (weight and
// input gradients), hence 2/3; the old heuristic's t_comp/2 window was
// smaller, which is one of the two ways it overpriced exposure (the other:
// it ignored that the first layers' bucket can never hide).
const backwardShare = 2.0 / 3

// Hierarchy returns the node layout the cluster prices, and whether PerNode
// groups the devices into nodes (PerNode > 1); it panics if PerNode does not
// divide Count. This is the one place the cluster answers the
// flat-versus-hierarchical question: a flat cluster is dist.Flat — every
// device its own node, Algo the exchange among them, the intra tier empty —
// so the pricer below knows a single topology and flat clusters differ only
// in reporting no tier split.
func (c Cluster) Hierarchy() (h dist.Hierarchy, tiered bool) {
	if c.PerNode <= 1 {
		return dist.Flat(c.Algo, c.Count), false
	}
	if c.Count%c.PerNode != 0 {
		panic(fmt.Sprintf("cluster: %d devices do not fill nodes of %d", c.Count, c.PerNode))
	}
	return dist.Hierarchy{Nodes: c.Count / c.PerNode, PerNode: c.PerNode, Intra: c.IntraAlgo, Inter: c.Algo}, true
}

// Predefined clusters matching the paper's experiments.

// DGX1 is one NVIDIA DGX-1 station: 8 P100s on NVLink.
func DGX1() Cluster {
	return Cluster{Machine: TeslaP100, Count: 8, Network: NVLinkHybrid, Algo: dist.Ring}
}

// SingleDevice is a one-device "cluster" (no communication).
func SingleDevice(m Machine) Cluster {
	return Cluster{Machine: m, Count: 1, Network: OmniPath, Algo: dist.Ring}
}

// KNLCluster is n Stampede-2 KNL nodes on Omni-Path.
func KNLCluster(n int) Cluster {
	return Cluster{Machine: KNL7250, Count: n, Network: OmniPath, Algo: dist.Ring}
}

// CPUCluster is n Skylake nodes on Omni-Path.
func CPUCluster(n int) Cluster {
	return Cluster{Machine: Xeon8160, Count: n, Network: OmniPath, Algo: dist.Ring}
}

// P100Cluster is n P100 GPUs on FDR InfiniBand (Facebook's setup).
func P100Cluster(n int) Cluster {
	return Cluster{Machine: TeslaP100, Count: n, Network: comm.MellanoxFDR, Algo: dist.Ring}
}

// DGXPod is n DGX-1 stations priced hierarchically: a ring over the eight
// P100s on NVLink inside each chassis, a tree over the station leaders on
// FDR InfiniBand — the two-tier composition the paper's multi-node GPU
// systems (and Goyal et al.'s 32x DGX-1 setup) use.
func DGXPod(n int) Cluster {
	return Cluster{
		Machine: TeslaP100, Count: 8 * n, Network: comm.MellanoxFDR, Algo: dist.Tree,
		PerNode: 8, IntraNetwork: NVLinkHybrid, IntraAlgo: dist.Ring,
	}
}

// Estimate is the simulator's output for one training configuration.
type Estimate struct {
	Cluster    Cluster
	Model      string
	Batch      int
	Epochs     int
	Iterations int64
	LocalBatch int
	// MicroBatch is the per-device compute batch after memory-driven
	// micro-batching; equal to LocalBatch when everything fits.
	MicroBatch int
	// OOM marks configurations where even a single image does not fit;
	// their compute and total times are +Inf.
	OOM       bool
	CompSec   float64 // per-iteration computation
	CommSec   float64 // per-iteration exposed communication
	TotalSec  float64
	ImagesSec float64 // sustained throughput
	// Comm is the closed-form schedule of one gradient allreduce under
	// the cluster's algorithm — the same counters internal/dist records
	// when executing the exchange for real. For hierarchical clusters it
	// is the aggregate across both tiers, TierComm.Total().
	Comm dist.CommStats
	// TierComm splits Comm by fabric tier for hierarchical clusters
	// (PerNode > 1): intra-node traffic priced on IntraNetwork, inter-node
	// on Network. Zero for flat clusters.
	TierComm dist.TierStats
	// BackwardSec is the backward-pass share of CompSec, the window the
	// overlap model hides communication in. Zero unless Overlap.
	BackwardSec float64
	// HiddenCommSec is the per-iteration communication hidden behind the
	// backward pass: the serial bucketed allreduce time minus the exposed
	// CommSec, never negative. Zero unless Overlap.
	HiddenCommSec float64
	// Buckets is the overlap pipeline's per-bucket timeline (bucket 0
	// covers the first layers and is ready last). Nil unless Overlap.
	Buckets []comm.BucketTiming
}

// Duration returns the total time as a time.Duration.
func (e Estimate) Duration() time.Duration { return time.Duration(e.TotalSec * float64(time.Second)) }

// String renders a compact summary row.
func (e Estimate) String() string {
	if e.OOM {
		return fmt.Sprintf("%s B=%d on %dx %s: OOM", e.Model, e.Batch, e.Cluster.Count, e.Cluster.Machine.Name)
	}
	return fmt.Sprintf("%s B=%d on %dx %s: %s (%.0f img/s, comm %.0f%%)",
		e.Model, e.Batch, e.Cluster.Count, e.Cluster.Machine.Name,
		formatDuration(e.TotalSec), e.ImagesSec, 100*e.CommSec/(e.CompSec+e.CommSec+1e-30))
}

// formatDuration renders seconds as the paper's "21h" / "24m" style.
func formatDuration(sec float64) string {
	d := time.Duration(sec * float64(time.Second))
	switch {
	case d >= 48*time.Hour:
		return fmt.Sprintf("%.1fd", d.Hours()/24)
	case d >= time.Hour:
		h := int(d.Hours())
		m := int(d.Minutes()) - 60*h
		return fmt.Sprintf("%dh%02dm", h, m)
	case d >= time.Minute:
		return fmt.Sprintf("%.0fm", d.Minutes())
	default:
		return fmt.Sprintf("%.1fs", d.Seconds())
	}
}

// pricePhase is the one pricer every Simulate* entry point sums into its own
// timeline: what one training iteration of spec (already replayed at the
// phase's resolution) costs at global batch size batch with world live
// devices of c — the full fleet, what evictions left of it, or a flat fleet
// grown past Count. It fills the per-iteration fields of an Estimate.
// Devices fill nodes from the front, so evictions empty the last node first
// and it leaves the inter tier exactly as the engine's membership machine
// shrinks it; the slowest (fullest) node paces the intra tier.
func pricePhase(c Cluster, spec *models.ModelSpec, batch, world int) Estimate {
	// The largest shard sets the lockstep iteration time, so price
	// ceil(batch/world): truncating would silently drop batch mod world
	// samples, underpricing compute and overstating throughput whenever
	// the global batch does not divide the device count. (More devices
	// than samples degenerates to one image on the busiest devices.)
	e := Estimate{Cluster: c, Model: spec.Name, Batch: batch, LocalBatch: (batch + world - 1) / world}
	fit := MaxBatch(c.Machine, spec)
	e.OOM = fit == 0
	// Oversized local batches accumulate gradients in micro-batches. When
	// not even one image fits the micro-batch is 0, the efficiency 0 and
	// the compute time +Inf — the honest price of a phase that cannot run.
	e.MicroBatch = min(e.LocalBatch, fit)
	eff := c.Machine.ProfileFor(spec.Name).Efficiency(float64(e.MicroBatch))
	e.CompSec = float64(e.LocalBatch) * float64(spec.TrainFLOPsPerImage()) / (c.Machine.PeakFLOPS * eff)

	h, tiered := c.Hierarchy()
	sizes := h.FrontFilled(world)
	bytes := spec.WeightBytes()
	tiers := comm.ExpectedTierStats(h, sizes, bytes)
	e.Comm = tiers.Total()
	if tiered {
		e.TierComm = tiers
	}
	e.CommSec = comm.AllreduceTime(c.IntraNetwork, c.Network, h, sizes, bytes)
	if c.Overlap {
		// Bucket-level overlap: pipeline the bucket allreduces against
		// the backward pass, each tier on its own fabric, and expose only
		// what the pipeline cannot hide. The bucket costs sum exactly to
		// the serial allreduce (latency amortizes across the pipelined
		// buckets), so the hidden remainder is the serial cost minus
		// what stayed exposed.
		k := c.OverlapBuckets
		if k <= 0 {
			k = DefaultOverlapBuckets
		}
		serial := e.CommSec
		e.BackwardSec = backwardShare * e.CompSec
		e.Buckets = comm.OverlapSchedule(c.IntraNetwork, c.Network, h, sizes, comm.EqualBuckets(bytes, k), e.BackwardSec)
		e.CommSec = comm.ExposedTime(e.Buckets, e.BackwardSec)
		e.HiddenCommSec = serial - e.CommSec
	}
	e.ImagesSec = float64(batch) / (e.CompSec + e.CommSec)
	return e
}

// Simulate prices one fixed-epoch training run of spec on c with global
// batch size batch over a dataset of datasetSize images.
func Simulate(c Cluster, spec *models.ModelSpec, batch, epochs, datasetSize int) Estimate {
	if c.Count <= 0 || batch <= 0 || epochs <= 0 || datasetSize <= 0 {
		panic("cluster: invalid simulation parameters")
	}
	e := pricePhase(c, spec, batch, c.Count)
	e.Epochs, e.Iterations = epochs, comm.Iterations(epochs, datasetSize, batch)
	e.TotalSec = float64(e.Iterations) * (e.CompSec + e.CommSec)
	return e
}

// ThroughputPoint is one x/y pair of Figure 3: per-device batch size versus
// sustained images/second on a single device (0 marks out-of-memory).
type ThroughputPoint struct {
	Batch     int
	ImagesSec float64
	OOM       bool
}

// ThroughputCurve regenerates Figure 3's shape for one device and model.
// Figure 3 runs each batch in one shot, so a batch the pricer would split
// into micro-batches is the curve's out-of-memory point.
func ThroughputCurve(m Machine, spec *models.ModelSpec, batches []int) []ThroughputPoint {
	out := make([]ThroughputPoint, 0, len(batches))
	for _, b := range batches {
		e := pricePhase(SingleDevice(m), spec, b, 1)
		if e.MicroBatch < b {
			out = append(out, ThroughputPoint{Batch: b, OOM: true})
			continue
		}
		out = append(out, ThroughputPoint{Batch: b, ImagesSec: e.ImagesSec})
	}
	return out
}
