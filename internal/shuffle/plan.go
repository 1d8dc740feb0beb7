// Package shuffle implements a Primula-style shuffle/sort operator for
// serverless workflows: an all-to-all sort through object storage with
// an on-the-fly planner that picks the number of functions to match
// the storage service's throughput profile — the paper's key mechanism
// ("using the optimal number of functions in terms of remote storage
// resource utilization is crucial for good performance", §2.2).
//
// A sort is one call, Operator.Sort(p, Spec), and where its
// intermediate data goes (the paper's variable) is Spec.Exchange:
// ViaStore (the zero value: the one-level all-to-all through object
// storage), ViaStoreTwoLevel (two levels in Groups groups) or ViaCache
// (runs in a provisioned cache cluster: Nodes, Warm, or a caller-owned
// Cluster). A field set for another exchange is refused, so a two-level
// cache sort cannot be asked for. One operator, NewOperator(platform,
// store, prov), runs all three; prov may be nil when no cache sort
// runs. Spec.PlanInput(size) is what the planners size a spec with.
//
// Every exchange is one job skeleton (skeleton.go), and every
// activation of every wave one task run by one handler. Every read is a
// chunked stream (objectstore.Client.GetStream, AdaptiveChunkBytes:
// slice/8 clamped to [256 KiB, 4 MiB], so small jobs overlap too) split
// into lines by one lineReader, the only place a line is carried across
// a chunk boundary. A mapper keys each line into one []bed.KeyRef by
// its offset in what it read, radix-sorts that index once and copies
// the lines into one buffer cut into a sorted run per reducer
// (dataplane.go, streammap.go); a reducer merges its runs as they
// stream in and writes through Client.PutStream (streamreduce.go); the
// two-level round-2 repartitioner streams the same merge into one
// buffer and cuts it by the mappers' rule, so its outputs are sorted
// runs with no sort at all. The VM exchange sorts its staged bytes
// with SortRun, the mappers' builder with one reducer. Every output
// part has one name, OutputKey, whatever exchange wrote it.
//
// Once a sized chunk shows that a map slice or a reducer's runs hold no
// lines, the rest is drained by one chain of callbacks with the
// function parked once in des.Proc.Await (meter.drain): its waits, on
// ClientStream.Poll and on a chunk's CPU, are the process's own wakes.
// A mapper's key index and a reducer's read set (its streams and the
// sources over them) come from free lists that no GC empties
// (freelist.go: keyIndexes, readSets), so no rep after the first
// allocates either, wherever a collection falls.
//
// plan.go is the one description of an exchange: a strategy is the
// wave list waves gives for it, the predictors fold that list into a
// Plan, and skeleton.go launches the same list, wave by wave. A job
// with Workers 0 folds its own list over the candidates: a two-level
// job is sized by the two-level model, a cache job by the cache model,
// and Optimize is the one-level store case.
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
	// worker's input partition must fit within memFillFactor of it.
	WorkerMemBytes int64
	// PartitionBps is a worker's partitioning throughput
	// (parse + route + serialize), bytes/second.
	PartitionBps float64
	// MergeBps is a worker's merge/sort throughput, bytes/second.
	MergeBps float64
	// Startup is the per-wave function startup estimate.
	Startup time.Duration
}

// WithDefaults fills the fields left at zero.
func (in PlanInput) WithDefaults() PlanInput {
	if in.MaxWorkers <= 0 {
		in.MaxWorkers = 256
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
	// Breakdown components of Predicted. Phase1 carries every wave but
	// the last, Phase2 the final reduce. IO is a wave's streaming leg
	// (transfer and the CPU it overlaps), buffered writes and request
	// terms; CPU only what runs after the stream ends (the map wave's
	// sort), so the components sum to the worker's wall time.
	Startup   time.Duration
	Phase1IO  time.Duration
	Phase1CPU time.Duration
	Phase2IO  time.Duration
	Phase2CPU time.Duration
	// MinWorkers is the memory-imposed lower bound the plan respected.
	MinWorkers int

	// Seconds is a worker's time in the waves before the components
	// above were truncated to nanoseconds one by one.
	Seconds float64
	// ClassA / ClassB are the object-store writes and reads of all the
	// workers' waves; the driver's DriverReads are not in them.
	ClassA, ClassB int64
	// Invocations is the function activations the waves take.
	Invocations int
}

// DriverReads is the class B requests the job driver issues before the
// first wave: the input's Head and the boundary sample.
const DriverReads = 2

// Rate is the bandwidth one of sharers concurrent clients gets over
// conns connections: the per-connection ceilings together, or its share
// of the service's aggregate, whichever binds first.
func (sp StoreProfile) Rate(conns, sharers float64) float64 {
	share := math.Inf(1)
	if sp.AggregateBandwidth > 0 {
		share = sp.AggregateBandwidth / sharers
	}
	return math.Min(conns*sp.PerConnBandwidth, share)
}

// medium is a substrate a wave reads from or writes to.
type medium struct {
	StoreProfile
	// hop is extra latency every request pays, in seconds: the
	// cross-zone share of a cache spread over zones.
	hop float64
	// billed marks the object store, whose requests are metered as
	// class A/B; a cache's are not billed per request.
	billed bool
	// resident: runs read from here arrive whole before the merge starts
	// (a cache Get has no chunked form), so the transfer in overlaps
	// nothing and the concurrent fetches share one request latency.
	resident bool
}

func (m medium) latency() float64 { return m.RequestLatency.Seconds() + m.hop }

// objectStore is the store of profile sp as a medium.
func objectStore(sp StoreProfile) medium { return medium{StoreProfile: sp, billed: true} }

// wave is one round of w functions, each moving 1/w of the data: read,
// compute, write. Every exchange strategy is a short list of them
// (waves; EXPERIMENTS.md has the table): fold prices the list and
// job.run launches it, every task reading its fan-in, fan-out and CPU
// rates here.
type wave struct {
	// from is where a worker's input lives and fanIn how many sorted
	// runs it gathers there over concurrent connections; fanIn 0 is the
	// map wave's one ranged stream over its slice of the input object.
	from  medium
	fanIn int
	// streamBps is the CPU overlapping the inbound transfer (partition
	// or merge); sortBps the CPU that waits for its end (0: none).
	streamBps, sortBps float64
	// to takes the output: fanOut buffered runs written one after
	// another, or, with fanOut 0, the merged output leaving through the
	// multipart PutStream writer while the merge runs.
	to     medium
	fanOut int
}

// cost is the one place a wave's time and requests are modelled, for one
// of fw workers moving perWorker bytes: io and cpu as in Plan, reads and
// writes the requests the worker issues on from and to. Requests cost a
// worker twice: latency for those it issues one after another, and the
// service's ops throttle, which all fw workers' requests share — the
// term that makes over-parallelizing lose.
func (wv wave) cost(fw, perWorker float64) (io, cpu, reads, writes float64) {
	from, to := wv.from, wv.to
	reads, writes = float64(wv.fanIn), float64(wv.fanOut)
	input, streamed := reads == 0, writes == 0
	if input {
		reads = 1
	}
	in := perWorker / from.Rate(reads, fw)
	work := perWorker / wv.streamBps
	var overlap, write float64
	if streamed {
		writes = float64(objectstore.PutStreamRequests(int64(perWorker), AdaptiveChunkBytes(0, int64(perWorker))))
		out := perWorker / to.Rate(objectstore.DefaultPutConns, fw)
		if from.resident {
			overlap = in + math.Max(work, out)
		} else {
			overlap = math.Max(in, math.Max(work, out))
		}
	} else {
		overlap, write = math.Max(in, work), perWorker/to.Rate(1, fw)
	}

	var req, admit float64
	switch {
	case input:
		// One ranged GET, then the runs PUT one after another.
		req = math.Max(writes*to.latency(), fw*writes/to.WriteOpsPerSec)
		admit = from.latency()
	case !streamed:
		// Gather and buffered writes: every request in sequence, all of
		// them against the read throttle.
		req = math.Max((reads+writes)*from.latency(), (fw*reads+fw*writes)/from.ReadOpsPerSec)
	case from.resident:
		req = math.Max(from.latency(), fw*reads/from.ReadOpsPerSec)
		admit = math.Max(to.latency(), fw*writes/to.WriteOpsPerSec)
	default:
		req = math.Max(reads*from.latency(),
			math.Max(fw*reads/from.ReadOpsPerSec, fw*writes/to.WriteOpsPerSec))
		admit = to.latency()
	}
	io = overlap + write + req + admit
	if wv.sortBps > 0 {
		cpu = perWorker / wv.sortBps
	}
	return io, cpu, reads, writes
}

// waves lists the exchange of w workers whose sorted runs live in via,
// the input and the output in store. One level (g == 0): every worker
// maps its slice of the input into one run per reducer, streaming it
// through the partitioner so that only the per-partition radix sort
// (MapStreamRates' split) waits for the stream to end, and every reducer
// streams its w runs into the k-way merge. In g groups (g divides w):
// spray into one coarse run per group, repartition each group's range by
// its fine boundaries (the merge-split cursor re-sorts nothing, so its
// CPU runs at the merge rate), merge. Each wave still moves data/w per
// worker; the request terms shrink from w per worker to g or w/g. The
// rates are taken as given: the predictors fill in.WithDefaults first, a
// job charges what its spec says. The list is appended to buf, which the
// predictors keep on their stack: the planner folds thousands a plan.
func waves(buf []wave, w, g int, in PlanInput, store, via medium) []wave {
	streamBps, sortBps := MapStreamRates(in.PartitionBps)
	fanOut := w
	if g > 0 {
		fanOut = g
	}
	buf = append(buf, wave{from: store, streamBps: streamBps, sortBps: sortBps, to: via, fanOut: fanOut})
	if g > 0 {
		fanOut = w / g
		buf = append(buf, wave{from: via, fanIn: g, streamBps: in.MergeBps, to: via, fanOut: fanOut})
	}
	return append(buf, wave{from: via, fanIn: fanOut, streamBps: in.MergeBps, to: store})
}

// fold adds a wave list up into a plan for w workers.
func fold(w int, in PlanInput, waves []wave) Plan {
	fw := float64(w)
	perWorker := float64(in.DataBytes) / fw
	toDur := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	p := Plan{Workers: w, Startup: in.Startup, Invocations: w * len(waves)}
	var io1, cpu1 float64
	for i, wv := range waves {
		io, cpu, reads, writes := wv.cost(fw, perWorker)
		p.Seconds += io + cpu
		if wv.from.billed {
			p.ClassB += int64(w) * int64(reads)
		}
		if wv.to.billed {
			p.ClassA += int64(w) * int64(writes)
		}
		if i < len(waves)-1 {
			io1, cpu1 = io1+io, cpu1+cpu
		} else {
			p.Phase2IO, p.Phase2CPU = toDur(io), toDur(cpu)
		}
	}
	p.Phase1IO, p.Phase1CPU = toDur(io1), toDur(cpu1)
	p.Predicted = p.Startup + p.Phase1IO + p.Phase1CPU + p.Phase2IO + p.Phase2CPU
	return p
}

// predict folds the wave list of one strategy, defaults filled in.
func predict(w, g int, in PlanInput, store, via medium) Plan {
	in = in.WithDefaults()
	var buf [3]wave
	return fold(w, in, waves(buf[:0], w, g, in, store, via))
}

// Predict models the one-level all-to-all with w workers per wave.
func Predict(w int, in PlanInput, sp StoreProfile) Plan {
	return predict(w, 0, in, objectStore(sp), objectStore(sp))
}

// PredictCache models the same exchange with the w x w runs held in a
// cache cluster of profile cache, whose every request pays hop seconds
// on top of its latency; input and output stay in the store.
func PredictCache(w int, in PlanInput, sp, cache StoreProfile, hop float64) Plan {
	return predict(w, 0, in, objectStore(sp), medium{StoreProfile: cache, hop: hop, resident: true})
}

// PredictHierarchical models the two-level shuffle with w workers in g
// groups; g must divide w.
func PredictHierarchical(w, g int, in PlanInput, sp StoreProfile) Plan {
	return predict(w, g, in, objectStore(sp), objectStore(sp))
}

// memFillFactor is the fraction of a worker's memory its input
// partition may fill: the rest is parse overhead, runtime and double
// buffering.
const memFillFactor = 0.6

// MinWorkersForMemory returns the smallest worker count whose input
// partition fits in worker memory.
func MinWorkersForMemory(in PlanInput) int {
	if in.WorkerMemBytes <= 0 {
		return 1
	}
	usable := float64(in.WorkerMemBytes) * memFillFactor
	minW := int(math.Ceil(float64(in.DataBytes) / usable))
	if minW < 1 {
		minW = 1
	}
	return minW
}

// Optimize picks the worker count minimizing predicted latency,
// subject to the memory lower bound — Primula's "find the optimal
// number of functions for a given shuffle data size on the fly". It is
// optimize's one-level case with the runs in the store.
func Optimize(in PlanInput, sp StoreProfile) (Plan, error) {
	return optimize(in, false, 0, objectStore(sp), objectStore(sp))
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

// optimize searches the worker counts for the one whose wave list folds
// to the shortest time: one level, or (hier) two levels in groups groups,
// where a fixed count (> 0) admits only the worker counts it divides and
// 0 takes autoGroups of each. A job that picks its own workers calls it
// with its own strategy, so it is sized by the model of what it runs.
func optimize(in PlanInput, hier bool, groups int, store, via medium) (Plan, error) {
	in = in.WithDefaults()
	if in.DataBytes <= 0 {
		return Plan{}, fmt.Errorf("shuffle: non-positive data size %d", in.DataBytes)
	}
	for _, m := range [...]medium{store, via} {
		if m.PerConnBandwidth <= 0 || m.ReadOpsPerSec <= 0 || m.WriteOpsPerSec <= 0 {
			return Plan{}, fmt.Errorf("shuffle: invalid store profile %+v", m.StoreProfile)
		}
	}
	minW := MinWorkersForMemory(in)
	if minW > in.MaxWorkers {
		return Plan{}, fmt.Errorf(
			"shuffle: %d bytes need >= %d workers but MaxWorkers is %d",
			in.DataBytes, minW, in.MaxWorkers)
	}
	best := Plan{}
	for w := minW; w <= in.MaxWorkers; w++ {
		g := 0
		if hier {
			if g = groups; g <= 0 {
				g = autoGroups(w)
			} else if w%g != 0 {
				continue
			}
		}
		p := predict(w, g, in, store, via)
		if best.Workers == 0 || p.Predicted < best.Predicted {
			best = p
		}
	}
	if best.Workers == 0 {
		return Plan{}, fmt.Errorf("shuffle: %d groups divide no worker count in [%d, %d]", groups, minW, in.MaxWorkers)
	}
	best.MinWorkers = minW
	return best, nil
}
