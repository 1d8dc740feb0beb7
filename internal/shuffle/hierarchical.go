package shuffle

import (
	"math"
	"time"

	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

// repartitionFn is the hierarchical operator's round-2 map function.
const repartitionFn = "shuffle/repartition"

// HierSpec describes a two-level (hierarchical) sort job. The one-level
// all-to-all moves w x w intermediate objects; with w workers in g
// groups the exchange becomes w*g objects in round 1 plus g*(w/g)^2 in
// round 2 — minimized near g = sqrt(w) at ~2*w^1.5 total. That trades
// an extra pass of data through the store for far fewer requests, which
// wins once the service's per-request latency and ops throttle dominate
// (large w) — the design extension Primula's line of work (Locus,
// Pocket) motivates.
type HierSpec struct {
	// Spec carries the common job parameters. Workers must be explicit
	// (or left 0 for the hierarchical planner).
	Spec
	// Groups is the number of round-1 groups; it must divide Workers.
	// 0 picks the divisor of Workers nearest sqrt(Workers).
	Groups int
}

// HierResult reports a completed hierarchical sort.
type HierResult struct {
	Result
	// Groups is the group count used (1 degenerates to a relabeled
	// one-level exchange).
	Groups int
	// Round1 and Round2 are the two exchange passes' durations; they
	// refine Result.Phase1/Phase2 (Phase1 = Round1, Phase2 = Round2).
	Round1, Round2 time.Duration
}

// EnableHierarchical registers the round-2 repartition function; call
// once per operator before SortHierarchical. Split from NewOperator so
// existing single-level deployments register nothing extra.
func (op *Operator) EnableHierarchical() error {
	if err := op.platform.Register(repartitionFn, repartitionHandler); err != nil {
		return err
	}
	op.hierarchical = true
	return nil
}

// autoGroups picks the divisor of w nearest sqrt(w). Primes degrade to
// 1 (a single group: one coarse pass then a full sort of each range).
func autoGroups(w int) int {
	if w <= 1 {
		return 1
	}
	root := math.Sqrt(float64(w))
	best, bestDist := 1, math.Inf(1)
	for g := 1; g <= w; g++ {
		if w%g != 0 {
			continue
		}
		if d := math.Abs(float64(g) - root); d < bestDist {
			best, bestDist = g, d
		}
	}
	return best
}

// SortHierarchical runs the two-level shuffle, blocking p until the
// sorted output is in place: round 1 sprays every worker's slice into
// one coarse range per group, round 2 repartitions each group's range
// by its fine boundaries and merges. Output parts are globally ordered
// across groups: group j's k parts are parts j*k .. j*k+k-1.
func (op *Operator) SortHierarchical(p *des.Proc, spec HierSpec) (HierResult, error) {
	j := op.job("hiershuffle", spec.Spec)
	j.hier, j.groups = true, spec.Groups
	if err := j.run(p); err != nil {
		return HierResult{}, err
	}
	return HierResult{Result: j.res, Groups: j.groups, Round1: j.res.Phase1, Round2: j.res.Phase2}, nil
}

// PredictHierarchical models the two-level shuffle's latency with w
// workers in g groups, mirroring Predict's structure: three waves
// (spray, repartition, merge), each moving data/w per worker, with the
// request terms shrunk from w per worker to g or w/g per worker.
func PredictHierarchical(w, g int, in PlanInput, sp StoreProfile) Plan {
	in = in.withDefaults()
	d := float64(in.DataBytes)
	fw := float64(w)
	fg := float64(g)
	k := fw / fg
	perWorker := d / fw

	rate := sp.PerConnBandwidth
	if sp.AggregateBandwidth > 0 {
		if agg := sp.AggregateBandwidth / fw; agg < rate {
			rate = agg
		}
	}
	lat := sp.RequestLatency.Seconds()
	toDur := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

	// Round 1: stream the slice — transfer overlaps the partition CPU,
	// with only the per-partition sort after it — then write g
	// partitions (w*g writes total).
	streamBps, sortBps := MapStreamRates(in.PartitionBps)
	reqR1 := math.Max(fg*lat, fw*fg/sp.WriteOpsPerSec)
	ioR1 := math.Max(perWorker/rate, perWorker/streamBps) + perWorker/rate + reqR1 + lat
	cpuR1 := perWorker / sortBps

	// Reduce-side streams run their fan-in concurrently; each leg is
	// capped by its connection count or the worker's aggregate share.
	aggShare := math.Inf(1)
	if sp.AggregateBandwidth > 0 {
		aggShare = sp.AggregateBandwidth / fw
	}

	// Round 2a: stream g sorted runs into the merge-split cursor — the
	// gather overlaps the cursor's CPU (it re-sorts nothing, so the CPU
	// leg runs at the merge rate) — then write k partitions buffered.
	inR2a := math.Min(fg*sp.PerConnBandwidth, aggShare)
	reqR2a := math.Max((fg+k)*lat, (fw*fg+fw*k)/sp.ReadOpsPerSec)
	ioR2a := math.Max(perWorker/inR2a, perWorker/in.MergeBps) + perWorker/rate + reqR2a
	cpuR2a := 0.0

	// Round 2b: stream k partitions into the final merge while the
	// output leaves through the multipart PutStream writer — the full
	// max(in, merge, out) overlap.
	inR2b := math.Min(k*sp.PerConnBandwidth, aggShare)
	outR2b := math.Min(float64(objectstore.DefaultPutConns)*sp.PerConnBandwidth, aggShare)
	parts := float64(objectstore.PutStreamRequests(int64(perWorker), AdaptiveChunkBytes(0, int64(perWorker))))
	reqR2b := math.Max(k*lat, math.Max(fw*k/sp.ReadOpsPerSec, fw*parts/sp.WriteOpsPerSec))
	ioR2b := math.Max(perWorker/inR2b, math.Max(perWorker/in.MergeBps, perWorker/outR2b)) +
		reqR2b + lat
	cpuR2b := 0.0

	p := Plan{
		Workers:   w,
		Startup:   in.Startup,
		Phase1IO:  toDur(ioR1 + ioR2a),
		Phase1CPU: toDur(cpuR1 + cpuR2a),
		Phase2IO:  toDur(ioR2b),
		Phase2CPU: toDur(cpuR2b),
	}
	p.Predicted = p.Startup + p.Phase1IO + p.Phase1CPU + p.Phase2IO + p.Phase2CPU
	return p
}
