package shuffle

import (
	"math"
	"time"

	"github.com/faaspipe/faaspipe/internal/objectstore"
)

// oraclePredict is the retired body of Predict, verbatim: the wave fold
// is compared with it to the nanosecond.
//
// Predict models the shuffle latency with w workers per phase.
//
// Phase 1 (map): each worker streams its data/w slice, partitioning
// chunks as they arrive — the ranged GET's transfer overlaps the
// parse/route CPU, so the streaming leg costs max(transfer,
// partitionCPU), and only the per-partition radix sort
// (mapSortShare of the partition budget) runs after the transfer —
// then writes w intermediate objects. Phase 2 (reduce): each worker
// streams its w intermediates (data/w total) into the k-way merge over
// w concurrent connections while the merged output leaves through the
// multipart PutStream writer, so the whole leg costs
// max(transfer-in, mergeCPU, transfer-out) plus the request terms.
// Transfers run at min(per-connection ceiling, aggregate/w); the w^2
// requests of each phase pay per-request latency serially per worker
// and are jointly subject to the service's ops throttle — the term
// that makes over-parallelizing lose.
//
// In the returned Plan, Phase1IO carries the whole streaming leg
// (transfer and partition CPU overlapped) plus the request terms and
// the partition-write leg; Phase1CPU is only the post-stream sort, so
// the component sum still equals the worker's wall time. Phase2IO
// carries the fully-overlapped reduce leg and Phase2CPU is zero: the
// merge has no post-stream work.
func oraclePredict(w int, in PlanInput, sp StoreProfile) Plan {
	in = in.WithDefaults()
	d := float64(in.DataBytes)
	fw := float64(w)
	perWorker := d / fw

	rate := sp.PerConnBandwidth
	if sp.AggregateBandwidth > 0 {
		if agg := sp.AggregateBandwidth / fw; agg < rate {
			rate = agg
		}
	}

	lat := sp.RequestLatency.Seconds()
	streamBps, sortBps := MapStreamRates(in.PartitionBps)
	reqP1 := math.Max(fw*lat, fw*fw/sp.WriteOpsPerSec) // w writes/worker; w^2 throttled
	streamLeg := math.Max(perWorker/rate, perWorker/streamBps)
	ioP1 := streamLeg + perWorker/rate /* write partitions */ + reqP1 + lat
	cpuP1 := perWorker / sortBps // post-stream per-partition sort

	// Reduce-in runs w streams concurrently and reduce-out uploads
	// completed parts on DefaultPutConns connections, so each direction
	// is capped by its connection fan-out or the worker's aggregate
	// share, whichever binds first.
	aggShare := math.Inf(1)
	if sp.AggregateBandwidth > 0 {
		aggShare = sp.AggregateBandwidth / fw
	}
	inRate := math.Min(fw*sp.PerConnBandwidth, aggShare)
	outRate := math.Min(float64(objectstore.DefaultPutConns)*sp.PerConnBandwidth, aggShare)
	parts := float64(objectstore.PutStreamRequests(int64(perWorker), AdaptiveChunkBytes(0, int64(perWorker))))
	reqP2 := math.Max(fw*lat, math.Max(fw*fw/sp.ReadOpsPerSec, fw*parts/sp.WriteOpsPerSec))
	ioP2 := math.Max(perWorker/inRate, math.Max(perWorker/in.MergeBps, perWorker/outRate)) +
		reqP2 + lat
	cpuP2 := 0.0

	toDur := func(s float64) time.Duration {
		return time.Duration(s * float64(time.Second))
	}
	p := Plan{
		Workers:   w,
		Startup:   in.Startup,
		Phase1IO:  toDur(ioP1),
		Phase1CPU: toDur(cpuP1),
		Phase2IO:  toDur(ioP2),
		Phase2CPU: toDur(cpuP2),
	}
	p.Predicted = p.Startup + p.Phase1IO + p.Phase1CPU + p.Phase2IO + p.Phase2CPU
	return p
}

// oraclePredictHierarchical is the retired body of PredictHierarchical,
// verbatim.
//
// PredictHierarchical models the two-level shuffle's latency with w
// workers in g groups, mirroring Predict's structure: three waves
// (spray, repartition, merge), each moving data/w per worker, with the
// request terms shrunk from w per worker to g or w/g per worker.
func oraclePredictHierarchical(w, g int, in PlanInput, sp StoreProfile) Plan {
	in = in.WithDefaults()
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
