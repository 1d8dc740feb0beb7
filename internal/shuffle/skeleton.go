package shuffle

// The one job skeleton every operator runs: validate → defaults → Head
// → plan workers → sample → map wave → optional repartition wave →
// reduce wave. What differs between the operators — where the
// all-to-all's sorted runs live, and what happens when that place
// breaks — sits behind runStore; the hierarchical exchange is the same
// skeleton with the extra wave.

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

// runStore is the seam between the skeleton and the medium the
// exchange's intermediates flow through: one sorted run per (mapper,
// reducer) pair, named by partKey. storeRuns keeps them in an
// object-store scratch bucket; cacheRuns keeps them in a provisioned
// cache cluster, degrading per run to the store when a shard is down.
type runStore interface {
	// Driver side, in call order.

	// profile returns the throughput profile the planner searches for a
	// size-byte exchange, or an error when the medium cannot hold it.
	profile(size int64) (StoreProfile, error)
	// ready blocks p until the medium can take runs.
	ready(p *des.Proc) error
	// reduce drives j's reduce wave over every reducer, with whatever
	// recovery the medium needs, and returns the output keys in
	// reducer order.
	reduce(p *des.Proc, j *job) ([]string, error)

	// Handler side.

	// put stores a worker's fan-out, the n runs each(0..n-1) names and
	// builds, in that order. It returns how many runs were stored, how
	// many of them took the medium's fallback path, and the error that
	// stopped it at the next one. each must not block.
	put(ctx *faas.Ctx, n int, each func(r int) (key string, run payload.Payload)) (stored, fellBack int, err error)
	// open starts reading the runs under keys, chunk bytes at a time.
	// On error it returns the sources opened so far, for the caller to
	// close.
	open(ctx *faas.Ctx, keys []string, chunk int64) ([]runSource, error)
	// free releases runs their consumer is done with. Handlers call it
	// only once the consumer's own output is durable: an invocation
	// re-attempted after a transient platform failure (MaxRetries) must
	// be able to re-read every run, so nothing may be released by an
	// attempt that did not finish.
	free(ctx *faas.Ctx, keys []string) error
}

// job is one sort in flight. The operators fill the first block and
// call run; the rest is the skeleton's state.
type job struct {
	platform *faas.Platform
	store    *objectstore.Service
	runs     runStore
	spec     Spec
	// prefix and seq mint the job ID ("<prefix>-NNNN").
	prefix string
	seq    *atomic.Int64
	// mapFn and reduceFn are the registered functions of the two waves.
	mapFn, reduceFn string
	// hier adds the repartition wave; groups is its group count
	// (<= 0: the divisor of the worker count nearest its square root).
	hier   bool
	groups int

	client  *objectstore.Client
	id      string
	size    int64
	workers int
	// k is the fan-in of one reducer: every worker one-level, the
	// workers of one group under the hierarchy.
	k int
	// fine holds the workers-1 sampled boundaries (nil: sized input).
	fine []Boundary
	// fallbacks counts map-wave runs that took the medium's fallback.
	fallbacks int
	res       Result
}

// run executes the job, blocking p until the sorted output is in place.
func (j *job) run(p *des.Proc) error {
	spec := &j.spec
	if err := spec.validate(); err != nil {
		return err
	}
	j.id = fmt.Sprintf("%s-%04d", j.prefix, j.seq.Add(1))
	j.client = objectstore.NewClient(j.store)

	head, err := j.client.Head(p, spec.InputBucket, spec.InputKey)
	if err != nil {
		return fmt.Errorf("shuffle: stat input: %w", err)
	}
	j.size = head.Size
	if j.size == 0 {
		return errors.New("shuffle: empty input")
	}
	j.res.TotalBytes = j.size

	// Decide parallelism against the medium's throughput profile.
	profile, err := j.runs.profile(j.size)
	if err != nil {
		return err
	}
	j.workers = spec.Workers
	if j.workers == 0 {
		plan, err := Optimize(PlanInput{
			DataBytes:      j.size,
			MaxWorkers:     spec.MaxWorkers,
			WorkerMemBytes: spec.WorkerMemBytes,
			PartitionBps:   spec.PartitionBps,
			MergeBps:       spec.MergeBps,
			Startup:        spec.Startup,
		}, profile)
		if err != nil {
			return err
		}
		j.workers = plan.Workers
		j.res.Planned = plan
		j.res.AutoPlanned = true
	}
	j.res.Workers = j.workers
	j.k = j.workers
	if j.hier {
		if j.groups <= 0 {
			j.groups = autoGroups(j.workers)
		}
		if j.groups > j.workers || j.workers%j.groups != 0 {
			return fmt.Errorf("shuffle: %d groups do not divide %d workers", j.groups, j.workers)
		}
		j.k = j.workers / j.groups
	}
	if err := j.runs.ready(p); err != nil {
		return err
	}

	// Sample for partition boundaries ("on the fly", real mode only).
	// One sample yields both levels of the hierarchy: the coarse
	// boundaries are every k-th fine one.
	start := p.Now()
	j.fine, err = sampleBoundaries(p, j.client, *spec, j.size, j.workers)
	if err != nil {
		return err
	}
	j.res.Sample = p.Now() - start

	// Phase 1: every worker partitions its slice of the input — into
	// one run per reducer, or per group under the hierarchy.
	start = p.Now()
	if j.fallbacks, err = j.mapWave(p, j.runs, nil); err != nil {
		return fmt.Errorf("shuffle: map wave: %w", err)
	}
	j.res.Phase1 = p.Now() - start

	// Phase 2: merge. Under the hierarchy each group first repartitions
	// its coarse range by the group's fine boundaries.
	start = p.Now()
	if j.hier {
		if err := j.repartitionWave(p); err != nil {
			return fmt.Errorf("shuffle: repartition wave: %w", err)
		}
	}
	if j.res.OutputKeys, err = j.runs.reduce(p, j); err != nil {
		return fmt.Errorf("shuffle: reduce wave: %w", err)
	}
	j.res.Phase2 = p.Now() - start
	return nil
}

// wave runs one wave of fn over inputs with the spec's fault policy:
// per-invocation retries for transient platform failures and optional
// straggler speculation.
func (j *job) wave(p *des.Proc, fn string, inputs []any) ([]any, error) {
	opts := faas.InvokeOptions{MemoryMB: j.spec.MemoryMB, MaxRetries: j.spec.MaxRetries}
	if j.spec.Speculate {
		outs, _, err := j.platform.MapSpeculative(p, fn, inputs, opts, j.spec.Speculation)
		return outs, err
	}
	return j.platform.MapSync(p, fn, inputs, opts)
}

// groupJob names the job whose runs group g's reducers gather: the job
// itself one-level, a per-group round-2 job under the hierarchy.
func (j *job) groupJob(g int) string {
	if !j.hier {
		return j.id
	}
	return fmt.Sprintf("%s-r2-g%04d", j.id, g)
}

// mapWave runs the map function over the given mapper indexes (nil:
// every mapper), writing through runs, and returns how many runs took
// the fallback path.
func (j *job) mapWave(p *des.Proc, runs runStore, mappers []int) (int, error) {
	// One-level, mapper m writes a run per reducer under the job ID.
	// Under the hierarchy it sprays into one coarse range per group.
	jobID, fanout, bounds := j.id, j.workers, j.fine
	if j.hier {
		jobID, fanout, bounds = j.id+"-r1", j.groups, nil
		if j.fine != nil {
			bounds = make([]Boundary, j.groups-1)
			for g := 1; g < j.groups; g++ {
				bounds[g-1] = j.fine[g*j.k-1]
			}
		}
	}
	n := j.workers
	if mappers != nil {
		n = len(mappers)
	}
	inputs := make([]any, n)
	for i := range inputs {
		m := i
		if mappers != nil {
			m = mappers[i]
		}
		slice := evenShare(j.size, j.workers, m)
		inputs[i] = &mapTask{
			mapRead: mapRead{
				Bucket: j.spec.InputBucket, Key: j.spec.InputKey,
				Offset: slice.off, Length: slice.n, TotalSize: j.size,
				ChunkBytes: j.spec.StreamChunkBytes, PartitionBps: j.spec.PartitionBps,
			},
			Runs:       runs,
			JobID:      jobID,
			MapIndex:   m,
			Fanout:     fanout,
			Boundaries: bounds,
		}
	}
	outs, err := j.wave(p, j.mapFn, inputs)
	if err != nil {
		return 0, err
	}
	fallbacks := 0
	for _, o := range outs {
		if n, ok := o.(int); ok {
			fallbacks += n
		}
	}
	return fallbacks, nil
}

// gather is the read side the repartition and reduce tasks share.
type gather struct {
	Runs runStore
	// Sources are the keys of the sorted runs to merge.
	Sources  []string
	MergeBps float64
	// SliceBytes is the planned per-worker volume, sizing the adaptive
	// stream chunk; ChunkBytes overrides it when set.
	SliceBytes int64
	ChunkBytes int64
}

func (j *job) newGather(sources []string) gather {
	return gather{
		Runs:       j.runs,
		Sources:    sources,
		MergeBps:   j.spec.MergeBps,
		SliceBytes: j.size / int64(j.workers),
		ChunkBytes: j.spec.StreamChunkBytes,
	}
}

// open starts one chunked read per source run.
func (g *gather) open(ctx *faas.Ctx) ([]runSource, error) {
	perRun := g.SliceBytes
	if len(g.Sources) > 0 {
		perRun /= int64(len(g.Sources))
	}
	return g.Runs.open(ctx, g.Sources, AdaptiveChunkBytes(g.ChunkBytes, perRun))
}

func closeRuns(srcs []runSource) {
	for _, s := range srcs {
		s.close()
	}
}

// repartitionWave is the hierarchy's round 2a: per group, k workers
// each gather g round-1 runs and split them by the group's k-1 fine
// boundaries into one run per reducer of the group.
func (j *job) repartitionWave(p *des.Proc) error {
	inputs := make([]any, 0, j.workers)
	round1 := j.id + "-r1"
	for g := 0; g < j.groups; g++ {
		var bounds []Boundary
		if j.fine != nil {
			bounds = j.fine[g*j.k : g*j.k+j.k-1]
		}
		groupJob := j.groupJob(g)
		for w := 0; w < j.k; w++ {
			// Worker w of group g gathers the group's coarse range from
			// mappers w*g .. (w+1)*g-1 (an even split of the round-1 runs).
			srcs := make([]string, 0, j.groups)
			for m := w * j.groups; m < (w+1)*j.groups; m++ {
				srcs = append(srcs, partKey(round1, m, g))
			}
			inputs = append(inputs, &repartitionTask{
				gather:     j.newGather(srcs),
				JobID:      groupJob,
				MapIndex:   w,
				Fanout:     j.k,
				Boundaries: bounds,
			})
		}
	}
	_, err := j.wave(p, repartitionFn, inputs)
	return err
}

// reduceWave runs the reduce function for the given reducers (global
// output indexes; nil: all of them) and returns their output keys in
// the same order. Group j's k parts are parts j*k .. j*k+k-1, so the
// output is globally ordered across groups.
func (j *job) reduceWave(p *des.Proc, reducers []int) ([]string, error) {
	n := j.workers
	if reducers != nil {
		n = len(reducers)
	}
	inputs := make([]any, n)
	for i := range inputs {
		idx := i
		if reducers != nil {
			idx = reducers[i]
		}
		groupJob := j.groupJob(idx / j.k)
		srcs := make([]string, j.k)
		for m := range srcs {
			srcs[m] = partKey(groupJob, m, idx%j.k)
		}
		inputs[i] = &reduceTask{
			gather:       j.newGather(srcs),
			OutputBucket: j.spec.OutputBucket,
			OutputKey:    outputKey(j.spec.OutputPrefix, idx),
		}
	}
	outs, err := j.wave(p, j.reduceFn, inputs)
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(outs))
	for i, o := range outs {
		key, ok := o.(string)
		if !ok {
			return nil, fmt.Errorf("shuffle: reduce returned %T, want string key", o)
		}
		keys[i] = key
	}
	return keys, nil
}

// sampleBoundaries reads the head of the input and derives w-1 binary
// sort-key boundaries from sample quantiles. Sized inputs return nil
// boundaries (timing-only mode splits evenly).
func sampleBoundaries(p *des.Proc, client *objectstore.Client, spec Spec, size int64, workers int) ([]Boundary, error) {
	if workers <= 1 {
		return nil, nil
	}
	pl, err := client.GetRange(p, spec.InputBucket, spec.InputKey, 0, min(sampleBytes, size))
	if err != nil {
		return nil, fmt.Errorf("shuffle: sample: %w", err)
	}
	raw, ok := pl.Bytes()
	if !ok {
		return nil, nil // sized mode
	}
	if cut := bytes.LastIndexByte(raw, '\n'); cut >= 0 {
		raw = raw[:cut+1]
	} else if int64(len(raw)) < size {
		return nil, errors.New("shuffle: sample contains no complete line")
	}
	recs, err := bed.Unmarshal(raw)
	if err != nil {
		return nil, fmt.Errorf("shuffle: sample parse: %w", err)
	}
	if len(recs) == 0 {
		return nil, errors.New("shuffle: empty sample")
	}
	// Radix sort the packed sample keys: the sample is read before
	// wave 1 can launch, so its sort sits on the job's critical path.
	// Idx carries the record index; ties fall back to full-name
	// comparison plus input order, exactly like runPart.finish.
	krs := make([]bed.KeyRef, len(recs))
	for i, r := range recs {
		krs[i] = bed.KeyRef{Key: bed.KeyOf(r), Idx: int32(i)}
	}
	bed.RadixSort(krs, func(a, b bed.KeyRef) int {
		if c := bed.CompareKeyName(a.Key, recs[a.Idx].Chrom, b.Key, recs[b.Idx].Chrom); c != 0 {
			return c
		}
		return int(a.Idx) - int(b.Idx)
	})
	bounds := make([]Boundary, workers-1)
	for i := 1; i < workers; i++ {
		kr := krs[i*len(krs)/workers]
		bounds[i-1] = Boundary{Key: kr.Key, Name: recs[kr.Idx].Chrom}
	}
	return bounds, nil
}

type byteRange struct {
	off, n int64
}

// evenShare returns range i of [0, size) divided into w contiguous
// ranges differing by at most one byte in length (the longer ones
// first): a mapper's input slice, and the size of a run a worker emits
// for a timing-only payload.
func evenShare(size int64, w, i int) byteRange {
	base, rem, k := size/int64(w), size%int64(w), int64(i)
	if k < rem {
		return byteRange{off: k * (base + 1), n: base + 1}
	}
	return byteRange{off: rem + k*base, n: base}
}

// mapTask is the input of one map-wave activation: the input slice to
// read, and the fan-out to write under (JobID, MapIndex).
type mapTask struct {
	mapRead
	Runs       runStore
	JobID      string
	MapIndex   int
	Fanout     int
	Boundaries []Boundary
}

// repartitionTask is the input of one round-2 repartition activation.
type repartitionTask struct {
	gather
	JobID      string
	MapIndex   int
	Fanout     int
	Boundaries []Boundary
}

// reduceTask is the input of one reduce-wave activation.
type reduceTask struct {
	gather
	OutputBucket string
	OutputKey    string
}

// mapHandler consumes its input slice as a stream of chunks,
// partitioning records by the binary sort-key boundaries as they
// arrive, and writes one sorted run per reducer. It returns how many of
// the runs took the run store's fallback path.
func mapHandler(ctx *faas.Ctx, input any) (any, error) {
	task, ok := input.(*mapTask)
	if !ok {
		return nil, fmt.Errorf("shuffle: map input %T", input)
	}
	var parts [][]byte
	if task.Length == 0 {
		// Degenerate split (more workers than bytes): write empty runs
		// to keep the key structure uniform.
		parts = make([][]byte, task.Fanout)
	} else {
		var err error
		if parts, err = consumeMapStream(ctx, task.mapRead, task.Fanout, task.Boundaries); err != nil {
			return nil, fmt.Errorf("shuffle: map %d: %w", task.MapIndex, err)
		}
	}
	fallbacks, err := putRuns(ctx, task.Runs, task.JobID, task.MapIndex, task.Fanout, parts, task.Length)
	if err != nil {
		return nil, fmt.Errorf("shuffle: map %d: %w", task.MapIndex, err)
	}
	return fallbacks, nil
}

// putRuns writes worker m's fan-out under job: parts[r] as reducer r's
// sorted run, or — parts being nil, the timing-only mode — an even
// split of total. It returns how many runs took the fallback path.
func putRuns(ctx *faas.Ctx, runs runStore, job string, m, fanout int, parts [][]byte, total int64) (int, error) {
	stored, fallbacks, err := runs.put(ctx, fanout, func(r int) (string, payload.Payload) {
		if parts != nil {
			return partKey(job, m, r), payload.RealNoCopy(parts[r])
		}
		return partKey(job, m, r), payload.Sized(evenShare(total, fanout, r).n)
	})
	if err != nil {
		return 0, fmt.Errorf("write run %d: %w", stored, err)
	}
	return fallbacks, nil
}

// repartitionHandler gathers its source runs — round-1 partitions,
// which are already sorted — and streams the k-way merge over them as
// the chunks arrive, so the g transfers overlap each other and the
// merge CPU, routing each line to its (fine) boundary partition as it
// is emitted: merge order makes every output partition a sorted run by
// construction, so round 2 re-sorts nothing. Only the key columns of
// each line are ever parsed; bytes are copied verbatim.
func repartitionHandler(ctx *faas.Ctx, input any) (any, error) {
	task, ok := input.(*repartitionTask)
	if !ok {
		return nil, fmt.Errorf("shuffle: repartition input %T", input)
	}
	srcs, err := task.open(ctx)
	defer closeRuns(srcs)
	if err != nil {
		return nil, fmt.Errorf("shuffle: repartition %d: %w", task.MapIndex, err)
	}
	split := newRunSplitter(task.Fanout, task.Boundaries, task.SliceBytes)
	charge := func(n int64) { ctx.ComputeBytes(n, task.MergeBps) }
	sized, total, err := mergeStreamedRuns(ctx.Proc, srcs, charge, split.emit)
	if err != nil {
		return nil, fmt.Errorf("shuffle: repartition %d merge: %w", task.MapIndex, err)
	}
	if sized {
		split.parts = nil
	}
	if _, err := putRuns(ctx, task.Runs, task.JobID, task.MapIndex, task.Fanout, split.parts, total); err != nil {
		return nil, fmt.Errorf("shuffle: repartition %d: %w", task.MapIndex, err)
	}
	if err := task.Runs.free(ctx, task.Sources); err != nil {
		return nil, fmt.Errorf("shuffle: repartition %d: %w", task.MapIndex, err)
	}
	return nil, nil
}

// reduceHandler opens a chunked read over every source run and k-way
// merges them as the chunks arrive, the merged lines flowing straight
// into a multipart streaming PUT — transfer-in, merge CPU, and
// transfer-out all overlap, so the reduce leg costs their max instead
// of their sum. No re-parse of full records, no re-sort, no
// re-serialization. It returns the output key.
func reduceHandler(ctx *faas.Ctx, input any) (any, error) {
	task, ok := input.(*reduceTask)
	if !ok {
		return nil, fmt.Errorf("shuffle: reduce input %T", input)
	}
	srcs, err := task.open(ctx)
	defer closeRuns(srcs)
	if err != nil {
		return nil, fmt.Errorf("shuffle: reduce %s: %w", task.OutputKey, err)
	}
	partBytes := AdaptiveChunkBytes(task.ChunkBytes, task.SliceBytes)
	if err := mergeToOutput(ctx, srcs, task.MergeBps, task.OutputBucket, task.OutputKey, partBytes); err != nil {
		return nil, fmt.Errorf("shuffle: reduce %s: %w", task.OutputKey, err)
	}
	if err := task.Runs.free(ctx, task.Sources); err != nil {
		return nil, fmt.Errorf("shuffle: reduce %s: %w", task.OutputKey, err)
	}
	return task.OutputKey, nil
}

// mergeToOutput k-way merges srcs into one object through a multipart
// streaming PUT: merged lines collect into partBytes-sized parts whose
// uploads overlap the remaining merge. A timing-only input aborts the
// upload and writes one sized object of the merged volume instead. A
// nil return is the durability point — the multipart complete (or the
// sized Put) has been admitted.
func mergeToOutput(ctx *faas.Ctx, srcs []runSource, mergeBps float64, bucket, key string, partBytes int64) error {
	w := ctx.Store.PutStream(ctx.Proc, bucket, key, objectstore.PutStreamOptions{PartBytes: partBytes})
	var buf []byte
	emit := func(_ bed.Key, line []byte) error {
		if buf == nil {
			buf = make([]byte, 0, partBytes+int64(len(line))+1)
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
		if int64(len(buf)) >= partBytes {
			err := w.Write(ctx.Proc, payload.RealNoCopy(buf))
			buf = nil // the payload retains the buffer; start a fresh one
			return err
		}
		return nil
	}
	charge := func(n int64) { ctx.ComputeBytes(n, mergeBps) }
	sized, total, err := mergeStreamedRuns(ctx.Proc, srcs, charge, emit)
	if err != nil {
		w.Abort(ctx.Proc)
		return fmt.Errorf("merge: %w", err)
	}
	if sized {
		w.Abort(ctx.Proc)
		if err := ctx.Store.Put(ctx.Proc, bucket, key, payload.Sized(total)); err != nil {
			return fmt.Errorf("write: %w", err)
		}
		return nil
	}
	if len(buf) > 0 {
		if err := w.Write(ctx.Proc, payload.RealNoCopy(buf)); err != nil {
			w.Abort(ctx.Proc)
			return fmt.Errorf("write: %w", err)
		}
	}
	if err := w.Close(ctx.Proc); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	return nil
}
