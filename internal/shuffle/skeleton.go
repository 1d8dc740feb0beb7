package shuffle

// The one job skeleton every exchange runs: validate → defaults → Head
// → plan workers → lay the strategy out as its wave list (plan.go's
// waves, the list the predictors fold) → sample → launch the list, wave
// by wave. Every activation of every wave is one task run by one
// handler, at its wave's fan-in, fan-out and CPU rates. What differs
// between the exchanges — where the sorted runs live, and what happens
// when that place breaks — sits behind runStore.

import (
	"bytes"
	"errors"
	"fmt"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/lists"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

// runStore is the seam between the skeleton and the medium the
// exchange's intermediates flow through: one sorted run per (mapper,
// reducer) pair, named by partKeys. storeRuns keeps them in an
// object-store scratch bucket; cacheRuns keeps them in a provisioned
// cache cluster, degrading per run to the store when a shard is down.
type runStore interface {
	// Driver side, in call order.

	// medium returns what the wave list reads and writes the runs of j's
	// exchange through (the planner folds the waves over it), or an
	// error when it cannot hold them.
	medium(j *job) (medium, error)
	// ready blocks p until the medium can take j's runs.
	ready(p *des.Proc, j *job) error
	// reduce drives j's last wave over every reducer, with whatever
	// recovery the medium needs.
	reduce(p *des.Proc, j *job) error

	// Handler side.

	// put stores a worker's fan-out, the n runs each(0..n-1) names and
	// builds, in that order. It returns how many runs were stored, how
	// many of them took the medium's fallback path, and the error that
	// stopped it at the next one. each must not block.
	put(ctx *faas.Ctx, n int, each func(r int) (key string, run payload.Payload)) (stored, fellBack int, err error)
	// open starts reading the runs under keys, chunk bytes at a time,
	// and returns their summed length, known before anything is read. On
	// error the set holds the sources opened so far. The caller closes
	// the set either way.
	open(ctx *faas.Ctx, keys []string, chunk int64) (readSet, int64, error)
	// free releases runs their consumer is done with. Handlers call it
	// only once the consumer's own output is durable: an invocation
	// re-attempted after a transient platform failure (MaxRetries) must
	// be able to re-read every run, so nothing may be released by an
	// attempt that did not finish.
	free(ctx *faas.Ctx, keys []string) error
}

// job is one sort in flight. Operator.Sort fills the first block and
// calls run; the rest is the skeleton's state.
type job struct {
	op   *Operator
	spec Spec

	// runs is where the exchange keeps its runs, picked from the spec.
	runs    runStore
	client  *objectstore.Client
	id      string
	size    int64
	workers int
	// waves is the strategy, as the predictors fold it.
	waves []wave
	// round1 names the job a spraying exchange's runs are written under;
	// groupJobs[g] the one group g's reducers gather from: the job itself
	// one-level, a per-group round-2 job under the hierarchy.
	round1    string
	groupJobs []string
	// runKeys[e] names every run of the exchange between waves e and
	// e+1, each built once, reader-major: reader t's fan-in is the row
	// runKeys[e][t*fanIn : (t+1)*fanIn], and a writer PUTs the very
	// strings its readers open (task.runKey).
	runKeys [][]string
	// k is the fan-in of one reducer: every worker one-level, the
	// workers of one group under the hierarchy.
	k int
	// fine holds the workers-1 sampled boundaries (nil: sized input);
	// coarse is every k-th of them, what the hierarchy's map wave
	// sprays by.
	fine, coarse []boundary
	res          Result
}

// run executes the job, blocking p until the sorted output is in place.
func (j *job) run(p *des.Proc) error {
	spec := &j.spec
	if err := spec.validate(j.op.prov != nil); err != nil {
		return err
	}
	seq := &j.op.seq
	if spec.Exchange == ViaCache {
		runs := &cacheRuns{cluster: spec.Cluster, fallback: spec.OutputBucket}
		if spec.Cluster == nil {
			// The job's own cluster stops with it, however it ends.
			defer func() {
				if runs.cluster != nil {
					runs.cluster.Stop()
				}
			}()
		}
		j.runs, seq = runs, &j.op.cacheSeq
	} else {
		j.runs = &storeRuns{bucket: spec.OutputBucket, cleanup: spec.CleanupScratch}
	}
	j.id = fmt.Sprintf("%s-%04d", exchanges[spec.Exchange].prefix, seq.Add(1))
	j.client = objectstore.NewClient(j.op.store)

	head, err := j.client.Head(p, spec.InputBucket, spec.InputKey)
	if err != nil {
		return fmt.Errorf("shuffle: stat input: %w", err)
	}
	j.size = head.Size
	if j.size == 0 {
		return errors.New("shuffle: empty input")
	}
	j.res.TotalBytes = j.size

	// Decide parallelism by folding the job's own wave list, its runs
	// through the medium and its input and output through the store.
	via, err := j.runs.medium(j)
	if err != nil {
		return err
	}
	in := spec.PlanInput(j.size)
	store := objectStore(ProfileOf(j.op.store.Config()))
	j.workers = spec.Workers
	if j.workers == 0 {
		plan, err := optimize(in, spec.Exchange == ViaStoreTwoLevel, spec.Groups, store, via)
		if err != nil {
			return err
		}
		j.workers = plan.Workers
		j.res.Planned = plan
		j.res.AutoPlanned = true
	}
	j.res.Workers = j.workers
	if err := j.layout(in, store, via); err != nil {
		return err
	}
	if err := j.runs.ready(p, j); err != nil {
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
	if j.res.Groups > 0 && j.fine != nil {
		j.coarse = make([]boundary, j.res.Groups-1)
		for g := 1; g < j.res.Groups; g++ {
			j.coarse[g-1] = j.fine[g*j.k-1]
		}
	}
	j.res.Sample = p.Now() - start

	// Phase 1 is the first wave: every worker partitions its slice of
	// the input. Phase 2 is every wave after it, the hierarchy's
	// repartition included.
	start = p.Now()
	for i := range j.waves {
		if i < len(j.waves)-1 {
			var fallbacks int
			fallbacks, err = j.launch(p, i, nil, j.runs)
			j.res.FallbackSlabs += fallbacks
		} else {
			err = j.runs.reduce(p, j)
		}
		if err != nil {
			return fmt.Errorf("shuffle: wave %d (%s): %w", i, j.fn(i), err)
		}
		if i == 0 {
			j.res.Phase1 = p.Now() - start
			start = p.Now()
		}
	}
	j.res.Phase2 = p.Now() - start
	return nil
}

// layout fixes the job's shape once its worker count is known: groups,
// the reducers' fan-in, the wave list between store and via, and every
// name that is not a task's own (output keys are deterministic, which is
// what lets a recovery re-run only some reducers).
func (j *job) layout(in PlanInput, store, via medium) error {
	j.groupJobs = []string{j.id}
	if j.spec.Exchange == ViaStoreTwoLevel {
		groups := j.spec.Groups
		if groups == 0 {
			groups = autoGroups(j.workers)
		}
		if groups > j.workers || j.workers%groups != 0 {
			return fmt.Errorf("shuffle: %d groups do not divide %d workers", groups, j.workers)
		}
		j.res.Groups = groups
		j.round1 = j.id + "-r1"
		j.groupJobs = make([]string, groups)
		for g := range j.groupJobs {
			j.groupJobs[g] = fmt.Sprintf("%s-r2-g%04d", j.id, g)
		}
	}
	j.waves = waves(nil, j.workers, j.res.Groups, in, store, via)
	j.k = j.waves[len(j.waves)-1].fanIn
	j.runKeys = make([][]string, len(j.waves)-1)
	for e := range j.runKeys {
		fanIn := j.waves[e+1].fanIn
		j.runKeys[e] = partKeys(j.workers*fanIn, func(i int) (string, int, int) {
			t, m := i/fanIn, i%fanIn
			grp, r := t/j.k, t%j.k
			if j.sprays(e) {
				// Reader r of group grp gathers the group's coarse range
				// from mappers r*fanIn .. (r+1)*fanIn-1.
				return j.round1, r*fanIn + m, grp
			}
			// Place r of each of the group's members.
			return j.groupJobs[grp], m, r
		})
	}
	j.res.OutputKeys = make([]string, j.workers)
	for r := range j.res.OutputKeys {
		j.res.OutputKeys[r] = OutputKey(j.spec.OutputPrefix, r)
	}
	return nil
}

// fn names the function wave i is invoked under. The names stay five,
// one handler behind them all, because the platform pools warm
// containers per name.
func (j *job) fn(i int) string {
	switch i {
	case 0:
		return exchanges[j.spec.Exchange].mapFn
	case len(j.waves) - 1:
		return exchanges[j.spec.Exchange].reduceFn
	}
	return repartitionFn
}

// sprays reports whether the exchange between waves e and e+1 crosses
// groups, its runs named under round1: every exchange but the last,
// which stays inside a group and is named by groupJobs.
func (j *job) sprays(e int) bool { return e < len(j.waves)-2 }

// task is the input of one activation, whatever wave it serves.
type task struct {
	// wave gives the fan-in, the fan-out and the CPU rates.
	wave *wave
	runs runStore
	// index is the task's place in its wave; it names the task in
	// errors.
	index int
	// What it reads: bytes [off, off+n) of the size-byte input object
	// (fan-in 0), its key a list of one as GetStreams opens it, or the
	// fan-in sorted runs under sources, a row of the job's key table.
	inBucket     string
	inKey        [1]string
	off, n, size int64
	sources      []string
	// Where the result goes: the fan-out runs, split at bounds, place r
	// named runKeys[runAt+r*runStride] of the next exchange's key table;
	// or (fan-out 0) the output object.
	runKeys           []string
	runAt, runStride  int
	bounds            []boundary
	outBucket, outKey string
	// sliceBytes is the planned per-worker volume, sizing a gather's
	// adaptive stream chunk; chunkBytes overrides it when set.
	sliceBytes, chunkBytes int64
}

// runKey names the run the task writes for place r of its fan-out: the
// string the run's reader opens it by.
func (t *task) runKey(r int) string { return t.runKeys[t.runAt+r*t.runStride] }

// task builds activation t of wave i, its runs written through runs: t
// is place r of group grp. It reads row t of the key table of the
// exchange before it (layout). Group grp's k parts are parts grp*k ..
// grp*k+k-1, so the output is globally ordered across groups;
// one-level, the one group is the job. Building it builds no key.
func (j *job) task(i, t int, runs runStore) *task {
	wv, grp, r := &j.waves[i], t/j.k, t%j.k
	tk := &task{
		wave: wv, runs: runs, index: t,
		sliceBytes: j.size / int64(j.workers), chunkBytes: j.spec.StreamChunkBytes,
	}
	if wv.fanIn == 0 {
		tk.inBucket, tk.inKey[0], tk.size = j.spec.InputBucket, j.spec.InputKey, j.size
		tk.off, tk.n = EvenShare(j.size, j.workers, t)
	} else {
		row := t * wv.fanIn
		tk.sources = j.runKeys[i-1][row : row+wv.fanIn : row+wv.fanIn]
	}
	if wv.fanOut == 0 {
		tk.outBucket, tk.outKey = j.spec.OutputBucket, j.res.OutputKeys[t]
		return tk
	}
	// Place p of this task's fan-out is one column of a reader's row in
	// the next exchange's table, whose rows are fanIn keys long.
	fanIn := j.waves[i+1].fanIn
	tk.runKeys = j.runKeys[i]
	if j.sprays(i) {
		// Mapper t is column t%fanIn of reader t/fanIn of group p: row
		// p*k + t/fanIn, so at t and a stride of k*fanIn.
		tk.runAt, tk.runStride, tk.bounds = t, j.k*fanIn, j.coarse
	} else {
		// Member r of group grp is column r of reader grp*k + p.
		tk.runAt, tk.runStride = grp*j.k*fanIn+r, fanIn
		if j.fine != nil {
			tk.bounds = j.fine[grp*j.k : grp*j.k+j.k-1]
		}
	}
	return tk
}

// inputs builds wave i's tasks at the given indexes (nil: all of them).
func (j *job) inputs(i int, indexes []int, runs runStore) []any {
	n := j.workers
	if indexes != nil {
		n = len(indexes)
	}
	inputs := make([]any, n)
	for at := range inputs {
		t := at
		if indexes != nil {
			t = indexes[at]
		}
		inputs[at] = j.task(i, t, runs)
	}
	return inputs
}

// launch runs wave i's tasks at the given indexes with the spec's fault
// policy — per-invocation retries for transient platform failures and
// optional straggler speculation — and returns how many of the runs they
// wrote through runs took its fallback path.
func (j *job) launch(p *des.Proc, i int, indexes []int, runs runStore) (int, error) {
	inputs := j.inputs(i, indexes, runs)
	opts := faas.InvokeOptions{MemoryMB: j.spec.MemoryMB, MaxRetries: j.spec.MaxRetries}
	var outs []any
	var err error
	if j.spec.Speculate {
		outs, _, err = j.op.platform.MapSpeculative(p, j.fn(i), inputs, opts)
	} else {
		outs, err = j.op.platform.MapSync(p, j.fn(i), inputs, opts)
	}
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

// sampleBoundaries reads the head of the input and derives w-1 binary
// sort-key boundaries from sample quantiles. Sized inputs return nil
// boundaries (timing-only mode splits evenly).
func sampleBoundaries(p *des.Proc, client *objectstore.Client, spec Spec, size int64, workers int) ([]boundary, error) {
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
	// Only each line's key is kept, and its chromosome name, which the
	// tie-break reads.
	krs := make([]bed.KeyRef, 0, bytes.Count(raw, []byte{'\n'})+1)
	names := make([]string, 0, cap(krs))
	if err := bed.EachRecord(raw, func(r bed.Record) error {
		krs = append(krs, bed.KeyRef{Key: bed.KeyOf(r), Idx: int32(len(krs))})
		names = append(names, r.Chrom)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("shuffle: sample parse: %w", err)
	}
	if len(krs) == 0 {
		return nil, errors.New("shuffle: empty sample")
	}
	// Radix sort the packed sample keys: the sample is read before
	// wave 1 can launch, so its sort sits on the job's critical path.
	// Idx carries the record index; ties fall back to full-name
	// comparison plus input order, exactly like runPart.finish.
	bed.RadixSort(krs, func(a, b bed.KeyRef) int {
		if c := bed.CompareKeyName(a.Key, names[a.Idx], b.Key, names[b.Idx]); c != 0 {
			return c
		}
		return int(a.Idx) - int(b.Idx)
	})
	bounds := make([]boundary, workers-1)
	for i := 1; i < workers; i++ {
		kr := krs[i*len(krs)/workers]
		bounds[i-1] = boundary{Key: kr.Key, Name: names[kr.Idx]}
	}
	return bounds, nil
}

// EvenShare returns range i of [0, size) divided into w contiguous
// ranges differing by at most one in length (the longer ones first): a
// mapper's input slice, the size of a run a worker emits for a
// timing-only payload, and the VM strategy's staging and output splits.
func EvenShare(size int64, w, i int) (off, n int64) {
	base, rem, k := size/int64(w), size%int64(w), int64(i)
	if k < rem {
		return k * (base + 1), base + 1
	}
	return rem + k*base, base
}

// handler is the body of every shuffle function. A task with no fan-in
// consumes its input slice as a stream of chunks, partitioning records
// by the binary sort-key boundaries as they arrive. One with a fan-in
// opens a chunked read over every source run — which are already
// sorted — and k-way merges them as the chunks arrive, so the transfers
// overlap each other and the merge CPU; only the key columns of each
// line are ever parsed, bytes are copied verbatim. The merged lines are
// routed to their boundary partition as they are emitted (merge order
// makes every partition a sorted run by construction, so nothing is
// re-sorted) or, with no fan-out, flow straight into a multipart
// streaming PUT, so the leg costs the max of transfer-in, merge CPU and
// transfer-out instead of their sum. It returns how many of the runs it
// wrote took the run store's fallback path.
func handler(ctx *faas.Ctx, input any) (any, error) {
	t, ok := input.(*task)
	if !ok {
		return nil, fmt.Errorf("shuffle: task input %T", input)
	}
	fallbacks, err := t.run(ctx)
	if err != nil {
		return nil, fmt.Errorf("shuffle: task %d: %w", t.index, err)
	}
	return fallbacks, nil
}

func (t *task) run(ctx *faas.Ctx) (int, error) {
	fanOut := t.wave.fanOut
	// parts are the fan-out's sorted runs; nil, the timing-only mode,
	// leaves an even split of total to write.
	var parts [][]byte
	var total int64
	var err error
	if t.wave.fanIn == 0 {
		if total = t.n; total == 0 {
			// Degenerate split (more workers than bytes): write empty runs
			// to keep the key structure uniform.
			parts = make([][]byte, fanOut)
		} else if parts, err = t.readSlice(ctx); err != nil {
			return 0, err
		}
	} else {
		perRun := t.sliceBytes / int64(len(t.sources))
		var set readSet
		var inBytes int64
		set, inBytes, err = t.runs.open(ctx, t.sources, AdaptiveChunkBytes(t.chunkBytes, perRun))
		defer set.close()
		if err != nil {
			return 0, err
		}
		m := &meter{p: ctx.Proc, clock: ctx, bps: t.wave.streamBps, left: inBytes}
		if fanOut == 0 {
			partBytes := AdaptiveChunkBytes(t.chunkBytes, t.sliceBytes)
			err = mergeToOutput(ctx, m, set.srcs, inBytes, t.outBucket, t.outKey, partBytes)
		} else {
			split := newRunSplitter(fanOut, t.bounds, inBytes)
			var sized bool
			if sized, total, err = mergeStreamedRuns(m, set.srcs, split.emit); !sized {
				parts = split.finish()
			}
			if err != nil {
				err = fmt.Errorf("merge: %w", err)
			}
		}
		if err != nil {
			return 0, err
		}
	}
	fallbacks := 0
	if fanOut > 0 {
		// An even split has two run sizes, base and base+1: each is boxed
		// once for the task, not once per run.
		base := total / int64(fanOut)
		var sized [2]payload.Payload
		if parts == nil {
			sized = [2]payload.Payload{payload.Sized(base), payload.Sized(base + 1)}
		}
		var stored int
		stored, fallbacks, err = t.runs.put(ctx, fanOut, func(r int) (string, payload.Payload) {
			if parts != nil {
				return t.runKey(r), payload.RealNoCopy(parts[r])
			}
			_, n := EvenShare(total, fanOut, r)
			return t.runKey(r), sized[n-base]
		})
		if err != nil {
			return 0, fmt.Errorf("write run %d: %w", stored, err)
		}
	}
	return fallbacks, t.runs.free(ctx, t.sources)
}

// readSet is what a reducer reads its runs through, or a mapper its
// slice: srcs, the sources the merge drains, and for store runs the
// streams they are, srcs[i] being &streams[i]. A store read set is
// taken from readSets and goes back there at close, so the streams,
// their bound steps and the sources over them are made once for the
// process, not once per task: a rig is made for every sweep point and
// every pipeline, and a list of its own would be dropped with it.
type readSet struct {
	srcs    []runSource
	streams []objectstore.ClientStream
}

// readSets holds the read sets no mapper or reducer is using, by the
// streams they have room for.
var readSets = lists.Free[readSet]{
	Size: func(s readSet) int { return len(s.streams) },
	Fresh: func(n int) readSet {
		s := readSet{srcs: make([]runSource, n), streams: make([]objectstore.ClientStream, n)}
		for i := range s.streams {
			s.srcs[i] = &s.streams[i]
		}
		return s
	},
}

// close closes every source. A store set goes back to readSets only
// once no stream's producing side runs: one closed with a chunk in
// flight, a throttle or a resume pending, as a reducer killed mid-merge
// or one that failed leaves them, is the kernel's until its event fires,
// and the set is left to the collector.
func (s readSet) close() {
	for _, src := range s.srcs {
		src.Close()
	}
	if s.streams != nil && objectstore.Reclaim(s.streams) {
		readSets.Put(readSet{srcs: s.srcs[:cap(s.srcs)], streams: s.streams[:cap(s.streams)]})
	}
}

// mergeToOutput k-way merges srcs, inBytes long in all, into one object
// through a multipart streaming PUT: merged lines collect into one buffer
// (reserved at the first line, with a byte per source for an unterminated
// last line), whose partBytes-sized spans upload while the merge goes on
// and are joined in place at completion (payload.Concat); the writer
// too is made at the first line. A timing-only input writes one sized
// object of the merged volume instead. A nil return is the durability
// point — the multipart complete (or the sized Put) has been admitted.
func mergeToOutput(ctx *faas.Ctx, m *meter, srcs []runSource, inBytes int64, bucket, key string, partBytes int64) error {
	var w *objectstore.PutWriter
	var buf []byte
	sent := 0 // buf[:sent] is with the writer
	emit := func(_ bed.Key, line []byte) error {
		if w == nil {
			w = ctx.Store.PutStream(ctx.Proc, bucket, key, objectstore.PutStreamOptions{PartBytes: partBytes})
			buf = make([]byte, 0, inBytes+int64(len(srcs)))
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
		if int64(len(buf)-sent) >= partBytes {
			err := w.Write(ctx.Proc, payload.RealNoCopy(buf[sent:]))
			sent = len(buf)
			return err
		}
		return nil
	}
	sized, total, err := mergeStreamedRuns(m, srcs, emit)
	if (err != nil || sized) && w != nil {
		w.Abort(ctx.Proc)
	}
	if err != nil {
		return fmt.Errorf("merge: %w", err)
	}
	if sized {
		if err := ctx.Store.Put(ctx.Proc, bucket, key, payload.Sized(total)); err != nil {
			return fmt.Errorf("write: %w", err)
		}
		return nil
	}
	if w == nil { // no line at all: an empty object
		w = ctx.Store.PutStream(ctx.Proc, bucket, key, objectstore.PutStreamOptions{PartBytes: partBytes})
	}
	if len(buf) > sent {
		if err := w.Write(ctx.Proc, payload.RealNoCopy(buf[sent:])); err != nil {
			w.Abort(ctx.Proc)
			return fmt.Errorf("write: %w", err)
		}
	}
	if err := w.Close(ctx.Proc); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	return nil
}
