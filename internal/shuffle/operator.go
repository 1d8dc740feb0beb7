package shuffle

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/memcache"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

const (
	// mapFn, repartitionFn and reduceFn are the store exchanges'
	// function names on the platform; the middle one is the two-level
	// sort's extra wave. cacheMapFn and cacheReduceFn are the cache
	// exchange's.
	mapFn         = "shuffle/map"
	repartitionFn = "shuffle/repartition"
	reduceFn      = "shuffle/reduce"
	cacheMapFn    = "cacheshuffle/map"
	cacheReduceFn = "cacheshuffle/reduce"
	// overscan is how far past its range a map worker reads to finish
	// its last line; bedMethyl lines are ~58 bytes, 4 KiB is generous.
	overscan = 4096
	// sampleBytes is read off the head of the input to estimate the
	// partition boundaries.
	sampleBytes = 256 * 1024
)

// Exchange is where a sort's intermediate runs go: the paper's variable.
type Exchange int

const (
	// ViaStore is the one-level all-to-all through object storage.
	ViaStore Exchange = iota
	// ViaStoreTwoLevel is the two-level exchange through object storage:
	// round 1 sprays every worker's slice into one coarse range per
	// group, round 2 repartitions each group's range by its fine
	// boundaries and merges. With w workers in g groups the all-to-all's
	// w x w objects become w*g in round 1 plus g*(w/g)^2 in round 2,
	// minimized near g = sqrt(w) at ~2*w^1.5 total. That trades an extra
	// pass of data through the store for far fewer requests, which wins
	// once the service's per-request latency and ops throttle dominate
	// (large w), the design extension Primula's line of work (Locus,
	// Pocket) motivates.
	ViaStoreTwoLevel
	// ViaCache is the one-level all-to-all through a provisioned
	// in-memory cache, the ElastiCache-style alternative the paper names
	// in §1. Input and output still live in the object store (the
	// datasets' home); only the w x w partition exchange uses the cache.
	ViaCache
)

// exchanges gives each exchange its job prefix, which names its run keys
// (those reach goldens), and the functions its first and last waves are
// invoked under; a wave between them runs as repartitionFn.
var exchanges = [...]struct{ prefix, mapFn, reduceFn string }{
	ViaStore:         {"shuffle", mapFn, reduceFn},
	ViaStoreTwoLevel: {"hiershuffle", mapFn, reduceFn},
	ViaCache:         {"cacheshuffle", cacheMapFn, cacheReduceFn},
}

// Operator is a serverless shuffle/sort. One operator registers its
// functions on a platform once and can then run any number of jobs,
// through any exchange.
type Operator struct {
	platform *faas.Platform
	store    *objectstore.Service
	// prov provisions the clusters of cache sorts; nil when none runs.
	prov *memcache.Provisioner
	// seq and cacheSeq allocate job IDs atomically, since a session rig
	// shares one operator across concurrently Submitted jobs. Store and
	// two-level jobs draw from seq. Cache jobs keep their own count: a
	// slab's key picks its memcache shard by hash, so renumbering them
	// would move virtual times.
	seq, cacheSeq atomic.Int64
}

// NewOperator registers the one handler on the platform under the five
// function names. Cache sorts provision their clusters from prov, which
// may be nil when none runs.
func NewOperator(platform *faas.Platform, store *objectstore.Service, prov *memcache.Provisioner) (*Operator, error) {
	for _, name := range [...]string{mapFn, repartitionFn, reduceFn, cacheMapFn, cacheReduceFn} {
		if err := platform.Register(name, handler); err != nil {
			return nil, err
		}
	}
	return &Operator{platform: platform, store: store, prov: prov}, nil
}

// Spec describes one sort job.
type Spec struct {
	// InputBucket/InputKey locate the unsorted bedMethyl object.
	InputBucket, InputKey string
	// OutputBucket/OutputPrefix receive the sorted parts
	// (<prefix>part-NNNN), globally ordered by part index. The
	// intermediate partitions go to the output bucket too.
	OutputBucket, OutputPrefix string
	// Workers fixes the parallelism; 0 lets the planner choose.
	Workers int
	// MaxWorkers bounds the planner (default 256).
	MaxWorkers int
	// WorkerMemBytes is each function's usable memory for planning.
	WorkerMemBytes int64
	// PartitionBps / MergeBps are the modeled per-worker throughputs
	// used both by the planner and to charge virtual compute time.
	PartitionBps, MergeBps float64
	// Startup is the planner's per-wave startup estimate.
	Startup time.Duration
	// MemoryMB overrides the platform's function memory grant.
	MemoryMB int
	// MaxRetries re-attempts invocations lost to transient platform
	// failures (faas.ErrInvocationFailed) this many extra times.
	MaxRetries int
	// Speculate enables straggler mitigation: laggard workers get a
	// duplicate invocation and the first completion wins. The shuffle's
	// functions are idempotent (deterministic keys), so this is safe.
	Speculate bool
	// Speculation tunes the mitigation when Speculate is set
	// (zero value: faas defaults).
	Speculation faas.Speculation
	// CleanupScratch deletes intermediate partition objects once the
	// consumer's output part is durably written (deferred so that a
	// MaxRetries re-attempt can still re-fetch everything). Deletes are
	// free on real providers but pay request latency; the default
	// leaves scratch in place (lifecycle rules reap it), matching the
	// paper's setup.
	CleanupScratch bool
	// StreamChunkBytes is the streaming map read's transfer granularity
	// (default objectstore.DefaultStreamChunk). Smaller chunks overlap
	// transfer and partition CPU at finer grain.
	StreamChunkBytes int64

	// Exchange is where the intermediate runs go (default ViaStore).
	Exchange Exchange
	// Groups is a two-level sort's round-1 group count; it must divide
	// Workers. 0 picks the divisor of Workers nearest sqrt(Workers).
	Groups int

	// The rest is for cache sorts only. Intermediates live in the cache;
	// the output bucket is the fallback for runs whose shard node is
	// down.

	// Nodes fixes the cluster size; 0 sizes it from the input volume
	// with CacheOversize.
	Nodes int
	// Warm treats the cluster as already provisioned: the spin-up
	// latency is skipped, modeling a long-lived shared cluster. Billing
	// still accrues for the job window only, which understates a real
	// always-on cluster's cost; the ablation's point is latency.
	Warm bool
	// Cluster, when set, is an already-running cluster owned by the
	// caller (a session's standing warm cluster): no provisioning
	// happens, the cluster is left running afterwards, and the owner
	// attributes its node-hours. Nodes/Warm are ignored.
	Cluster *memcache.Cluster
}

func (s Spec) validate(cacheProv bool) error {
	if s.InputBucket == "" || s.InputKey == "" {
		return errors.New("shuffle: input not specified")
	}
	if s.OutputBucket == "" {
		return errors.New("shuffle: output bucket not specified")
	}
	if s.Workers < 0 {
		return fmt.Errorf("shuffle: negative workers %d", s.Workers)
	}
	if s.Exchange < ViaStore || s.Exchange > ViaCache {
		return fmt.Errorf("shuffle: unknown exchange %d", s.Exchange)
	}
	if s.Groups < 0 || s.Nodes < 0 {
		return fmt.Errorf("shuffle: negative groups (%d) or nodes (%d)", s.Groups, s.Nodes)
	}
	if s.Groups != 0 && s.Exchange != ViaStoreTwoLevel {
		// This is also what keeps a two-level cache sort unrepresentable.
		return errors.New("shuffle: Groups is for two-level sorts only")
	}
	if s.Exchange != ViaCache && (s.Nodes != 0 || s.Warm || s.Cluster != nil) {
		return errors.New("shuffle: Nodes, Warm and Cluster are for cache sorts only")
	}
	if s.Exchange == ViaCache && !cacheProv {
		return errors.New("shuffle: cache sort on an operator with no cache provisioner")
	}
	if s.CleanupScratch && s.Speculate {
		// A speculative duplicate re-reads partitions its twin may have
		// already deleted; even with deletes deferred past the output
		// write, a losing twin can outlive the winner's cleanup, so the
		// combination stays rejected. (CleanupScratch with MaxRetries is
		// fine: deletes only happen after an attempt's output is durable,
		// and failed attempts delete nothing.)
		return errors.New("shuffle: CleanupScratch and Speculate are mutually exclusive")
	}
	if s.Speculate {
		if err := s.Speculation.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Result reports a completed sort.
type Result struct {
	// Workers is the parallelism actually used.
	Workers int
	// Groups is the group count of a two-level sort (1 degenerates to a
	// relabeled one-level exchange); 0 one-level.
	Groups int
	// Planned is the planner's decision (zero-valued when Workers was
	// fixed by the caller).
	Planned Plan
	// AutoPlanned reports whether the planner chose the worker count.
	AutoPlanned bool
	// Sample, Phase1, Phase2 are the measured stage durations: the
	// boundary sample, the map wave, and every wave after it.
	Sample, Phase1, Phase2 time.Duration
	// TotalBytes is the input size.
	TotalBytes int64
	// OutputKeys are the sorted part keys in global order.
	OutputKeys []string

	// The rest is the cache exchange's; a sort through the store leaves
	// it zero.

	// Nodes is the cluster size used.
	Nodes int
	// Provision is the cluster spin-up time paid (zero when Warm).
	Provision time.Duration
	// FallbackSlabs counts intermediate partitions that flowed through
	// object storage instead of the cache because their shard node was
	// down (direct reroutes plus regenerated slabs).
	FallbackSlabs int
	// Restarts counts recovery waves run after a node loss: slab
	// regeneration passes and reduce re-runs.
	Restarts int
	// ReworkBytes is the input volume re-read to regenerate slabs a
	// failed node lost.
	ReworkBytes int64
}

// Sort runs the sort through the exchange spec names, blocking p until
// the sorted output is in place. Output parts are globally ordered by
// part index, across groups too: group j's k parts are parts j*k ..
// j*k+k-1. A cache sort provisions its cluster before the exchange and
// stops it after, unless the spec brings its own.
func (op *Operator) Sort(p *des.Proc, spec Spec) (Result, error) {
	j := &job{op: op, spec: spec}
	if err := j.run(p); err != nil {
		return Result{}, err
	}
	return j.res, nil
}

// ProfileOf converts a store config into the planner's profile.
func ProfileOf(cfg objectstore.Config) StoreProfile {
	return StoreProfile{
		RequestLatency:     cfg.RequestLatency,
		PerConnBandwidth:   cfg.PerConnBandwidth,
		AggregateBandwidth: cfg.AggregateBandwidth,
		ReadOpsPerSec:      cfg.ReadOpsPerSec,
		WriteOpsPerSec:     cfg.WriteOpsPerSec,
	}
}

// storeRuns is the object-store run store: every run is one scratch
// object, read back as a chunked stream. It has no fallback path and
// needs no recovery beyond the client's and the platform's retries.
type storeRuns struct {
	bucket string
	// cleanup deletes runs once consumed (Spec.CleanupScratch).
	cleanup bool
}

func (s *storeRuns) medium(j *job) (medium, error) {
	return objectStore(ProfileOf(j.op.store.Config())), nil
}

func (s *storeRuns) ready(*des.Proc, *job) error { return nil }

func (s *storeRuns) reduce(p *des.Proc, j *job) error {
	_, err := j.launch(p, len(j.waves)-1, nil, s)
	return err
}

// put and open hand the store the whole list: a mapper's w PUTs and a
// reducer's w opens go one after another as they always did, with the
// worker parked once for the list instead of several times per run.
func (s *storeRuns) put(ctx *faas.Ctx, n int, each func(int) (string, payload.Payload)) (int, int, error) {
	stored, err := ctx.Store.PutEach(ctx.Proc, s.bucket, n, each)
	return stored, 0, err
}

func (s *storeRuns) open(ctx *faas.Ctx, keys []string, chunk int64) ([]runSource, error) {
	streams, err := ctx.Store.GetStreams(ctx.Proc, s.bucket, keys, objectstore.StreamOptions{ChunkBytes: chunk})
	srcs := make([]runSource, len(streams))
	for i := range streams {
		srcs[i] = &streams[i]
	}
	if err != nil {
		return srcs, fmt.Errorf("open %s: %w", keys[len(streams)], err)
	}
	return srcs, nil
}

func (s *storeRuns) free(ctx *faas.Ctx, keys []string) error {
	if !s.cleanup {
		return nil
	}
	for _, key := range keys {
		if err := ctx.Store.Delete(ctx.Proc, s.bucket, key); err != nil {
			return fmt.Errorf("free %s: %w", key, err)
		}
	}
	return nil
}

// The shells below keep the entry points bench/ names until it moves to
// Sort; ROADMAP K.2 removes them.

// HierSpec is the spec of SortHierarchical.
//
// Deprecated: set Spec.Exchange to ViaStoreTwoLevel (ROADMAP K.2).
type HierSpec struct{ Spec }

// SortHierarchical runs a two-level sort.
//
// Deprecated: use Sort with Spec.Exchange ViaStoreTwoLevel (ROADMAP K.2).
func (op *Operator) SortHierarchical(p *des.Proc, spec HierSpec) (Result, error) {
	return op.Sort(p, spec.through(ViaStoreTwoLevel, spec.Warm))
}

// CacheOperator is the operator cache sorts once needed.
//
// Deprecated: use Operator with Spec.Exchange ViaCache (ROADMAP K.2).
type CacheOperator struct{ *Operator }

// CacheSpec is the spec of CacheOperator.Sort.
//
// Deprecated: set Spec.Exchange to ViaCache, and Spec.Warm (ROADMAP K.2).
type CacheSpec struct {
	Spec
	Warm bool
}

// Sort runs a cache sort.
//
// Deprecated: use Operator.Sort with Spec.Exchange ViaCache (ROADMAP K.2).
func (op *CacheOperator) Sort(p *des.Proc, spec CacheSpec) (Result, error) {
	return op.Operator.Sort(p, spec.through(ViaCache, spec.Warm))
}

// through returns s with the exchange and Warm set: each shell's one
// statement.
func (s Spec) through(e Exchange, warm bool) Spec {
	s.Exchange, s.Warm = e, warm
	return s
}
