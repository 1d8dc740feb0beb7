// Package shuffle implements a Primula-style shuffle/sort operator for
// serverless workflows: an all-to-all sort through object storage with
// an on-the-fly planner that picks the number of functions to match
// the storage service's throughput profile — the paper's key mechanism
// ("using the optimal number of functions in terms of remote storage
// resource utilization is crucial for good performance", §2.2).
package shuffle

import (
	"fmt"
	"math"
	"time"

	"github.com/faaspipe/faaspipe/internal/objectstore"
)

// StoreProfile summarizes the object storage performance model the
// planner optimizes against. It mirrors objectstore.Config.
type StoreProfile struct {
	RequestLatency     time.Duration
	PerConnBandwidth   float64
	AggregateBandwidth float64
	ReadOpsPerSec      float64
	WriteOpsPerSec     float64
}

// PlanInput describes one shuffle job for the planner.
type PlanInput struct {
	// DataBytes is the shuffle volume.
	DataBytes int64
	// MaxWorkers bounds the search (platform or user limit).
	MaxWorkers int
	// WorkerMemBytes is the per-function memory usable for data; a
	// worker's input partition must fit within MemFillFactor of it.
	WorkerMemBytes int64
	// MemFillFactor is the usable fraction of worker memory
	// (default 0.6: parse overhead, runtime, double buffering).
	MemFillFactor float64
	// PartitionBps is a worker's partitioning throughput
	// (parse + route + serialize), bytes/second.
	PartitionBps float64
	// MergeBps is a worker's merge/sort throughput, bytes/second.
	MergeBps float64
	// Startup is the per-wave function startup estimate.
	Startup time.Duration
}

func (in PlanInput) withDefaults() PlanInput {
	if in.MaxWorkers <= 0 {
		in.MaxWorkers = 256
	}
	if in.MemFillFactor <= 0 || in.MemFillFactor > 1 {
		in.MemFillFactor = 0.6
	}
	if in.PartitionBps <= 0 {
		in.PartitionBps = 150e6
	}
	if in.MergeBps <= 0 {
		in.MergeBps = 200e6
	}
	return in
}

// Plan is the planner's decision with its predicted breakdown.
type Plan struct {
	// Workers is the chosen parallelism for both phases.
	Workers int
	// Predicted is the modeled end-to-end shuffle latency.
	Predicted time.Duration
	// Breakdown components of Predicted.
	Startup   time.Duration
	Phase1IO  time.Duration
	Phase1CPU time.Duration
	Phase2IO  time.Duration
	Phase2CPU time.Duration
	// MinWorkers is the memory-imposed lower bound the plan respected.
	MinWorkers int
}

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
func Predict(w int, in PlanInput, sp StoreProfile) Plan {
	in = in.withDefaults()
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

// MinWorkersForMemory returns the smallest worker count whose input
// partition fits in worker memory.
func MinWorkersForMemory(in PlanInput) int {
	in = in.withDefaults()
	if in.WorkerMemBytes <= 0 {
		return 1
	}
	usable := float64(in.WorkerMemBytes) * in.MemFillFactor
	minW := int(math.Ceil(float64(in.DataBytes) / usable))
	if minW < 1 {
		minW = 1
	}
	return minW
}

// Optimize picks the worker count minimizing predicted latency,
// subject to the memory lower bound — Primula's "find the optimal
// number of functions for a given shuffle data size on the fly".
func Optimize(in PlanInput, sp StoreProfile) (Plan, error) {
	in = in.withDefaults()
	if in.DataBytes <= 0 {
		return Plan{}, fmt.Errorf("shuffle: non-positive data size %d", in.DataBytes)
	}
	if sp.PerConnBandwidth <= 0 || sp.ReadOpsPerSec <= 0 || sp.WriteOpsPerSec <= 0 {
		return Plan{}, fmt.Errorf("shuffle: invalid store profile %+v", sp)
	}
	minW := MinWorkersForMemory(in)
	if minW > in.MaxWorkers {
		return Plan{}, fmt.Errorf(
			"shuffle: %d bytes need >= %d workers but MaxWorkers is %d",
			in.DataBytes, minW, in.MaxWorkers)
	}
	best := Plan{}
	for w := minW; w <= in.MaxWorkers; w++ {
		p := Predict(w, in, sp)
		if best.Workers == 0 || p.Predicted < best.Predicted {
			best = p
		}
	}
	best.MinWorkers = minW
	return best, nil
}
