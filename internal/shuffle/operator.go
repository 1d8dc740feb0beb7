package shuffle

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

const (
	// mapFn, repartitionFn and reduceFn are the operator's function names
	// on the platform; the middle one is the two-level sort's extra wave.
	mapFn         = "shuffle/map"
	repartitionFn = "shuffle/repartition"
	reduceFn      = "shuffle/reduce"
	// overscan is how far past its range a map worker reads to finish
	// its last line; bedMethyl lines are ~58 bytes, 4 KiB is generous.
	overscan = 4096
	// sampleBytes is read off the head of the input to estimate the
	// partition boundaries.
	sampleBytes = 256 * 1024
)

// Operator is a serverless shuffle/sort over an object store. One
// operator registers its functions on a platform once and can then run
// any number of jobs.
type Operator struct {
	platform *faas.Platform
	store    *objectstore.Service
	// seq allocates job IDs atomically: a session rig shares one
	// operator across concurrently Submitted jobs.
	seq atomic.Int64
}

// NewOperator registers the shuffle functions on the platform.
func NewOperator(platform *faas.Platform, store *objectstore.Service) (*Operator, error) {
	if err := register(platform, mapFn, repartitionFn, reduceFn); err != nil {
		return nil, err
	}
	return &Operator{platform: platform, store: store}, nil
}

// register puts the one handler on the platform under each name.
func register(platform *faas.Platform, names ...string) error {
	for _, name := range names {
		if err := platform.Register(name, handler); err != nil {
			return err
		}
	}
	return nil
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
}

func (s Spec) validate() error {
	if s.InputBucket == "" || s.InputKey == "" {
		return errors.New("shuffle: input not specified")
	}
	if s.OutputBucket == "" {
		return errors.New("shuffle: output bucket not specified")
	}
	if s.Workers < 0 {
		return fmt.Errorf("shuffle: negative workers %d", s.Workers)
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

// Sort runs the shuffle, blocking p until the sorted output is in
// place.
func (op *Operator) Sort(p *des.Proc, spec Spec) (Result, error) {
	return op.sort(p, "shuffle", spec, false, 0)
}

// sort runs a job whose runs flow through the scratch bucket.
func (op *Operator) sort(p *des.Proc, prefix string, spec Spec, hier bool, groups int) (Result, error) {
	j := &job{
		platform: op.platform,
		store:    op.store,
		runs:     &storeRuns{bucket: spec.OutputBucket, cleanup: spec.CleanupScratch, via: objectStore(ProfileOf(op.store.Config()))},
		spec:     spec,
		prefix:   prefix,
		seq:      &op.seq,
		mapFn:    mapFn,
		reduceFn: reduceFn,
		hier:     hier,
		groups:   groups,
	}
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
	// via is the service as the wave list and the planner see it.
	via medium
}

func (s *storeRuns) medium(int64) (medium, error) { return s.via, nil }

func (s *storeRuns) ready(*des.Proc) error { return nil }

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
