package shuffle

import (
	"bytes"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/memcache"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

type testRig struct {
	sim   *des.Sim
	store *objectstore.Service
	pf    *faas.Platform
	op    *Operator
}

func newRig(t *testing.T) *testRig {
	t.Helper()
	rig, _ := newCacheRig(t)
	return rig
}

// newCacheRig builds the operator rig with a cache provisioner of
// cacheTestConfig, so the one operator runs every exchange.
func newCacheRig(t *testing.T) (*testRig, *memcache.Provisioner) {
	t.Helper()
	sim := des.New(1)
	store, err := objectstore.New(sim, objectstore.Config{
		RequestLatency:     time.Millisecond,
		PerConnBandwidth:   1e9,
		AggregateBandwidth: 0,
		ReadOpsPerSec:      1e6,
		WriteOpsPerSec:     1e6,
		OpsBurst:           1e6,
	})
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	pf, err := faas.New(sim, store, faas.Config{
		ColdStart:          100 * time.Millisecond,
		WarmStart:          5 * time.Millisecond,
		KeepAlive:          10 * time.Minute,
		MemoryMB:           2048,
		BaselineMemoryMB:   2048,
		ConcurrencyLimit:   500,
		BillingGranularity: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("platform: %v", err)
	}
	prov, err := memcache.NewProvisioner(sim, cacheTestConfig())
	if err != nil {
		t.Fatalf("cache provisioner: %v", err)
	}
	op, err := NewOperator(pf, store, prov)
	if err != nil {
		t.Fatalf("operator: %v", err)
	}
	return &testRig{sim: sim, store: store, pf: pf, op: op}, prov
}

// loadInput stores records as one TSV object and returns them.
func (rig *testRig) loadInput(t *testing.T, p *des.Proc, recs []bed.Record) {
	t.Helper()
	c := objectstore.NewClient(rig.store)
	if err := c.CreateBucket(p, "in"); err != nil {
		t.Fatalf("bucket in: %v", err)
	}
	if err := c.CreateBucket(p, "out"); err != nil {
		t.Fatalf("bucket out: %v", err)
	}
	if err := c.Put(p, "in", "data.bed", payload.RealNoCopy(bed.Marshal(recs))); err != nil {
		t.Fatalf("put input: %v", err)
	}
}

// fetchSorted reads back all output parts in order and parses them.
func (rig *testRig) fetchSorted(t *testing.T, p *des.Proc, keys []string) []bed.Record {
	t.Helper()
	c := objectstore.NewClient(rig.store)
	var all []bed.Record
	for _, k := range keys {
		pl, err := c.Get(p, "out", k)
		if err != nil {
			t.Fatalf("get %s: %v", k, err)
		}
		raw, ok := pl.Bytes()
		if !ok {
			t.Fatalf("output %s is not real", k)
		}
		recs, err := bed.Unmarshal(raw)
		if err != nil {
			t.Fatalf("parse %s: %v", k, err)
		}
		all = append(all, recs...)
	}
	return all
}

func recordMultiset(recs []bed.Record) map[bed.Record]int {
	m := make(map[bed.Record]int, len(recs))
	for _, r := range recs {
		m[r]++
	}
	return m
}

func sortSpec(workers int) Spec {
	return Spec{
		InputBucket: "in", InputKey: "data.bed",
		OutputBucket: "out", OutputPrefix: "sorted/",
		Workers: workers,
	}
}

func runSort(t *testing.T, rig *testRig, recs []bed.Record, spec Spec) (Result, []bed.Record) {
	t.Helper()
	var res Result
	var sorted []bed.Record
	var sortErr error
	rig.sim.Spawn("driver", func(p *des.Proc) {
		rig.loadInput(t, p, recs)
		res, sortErr = rig.op.Sort(p, spec)
		if sortErr != nil {
			return
		}
		sorted = rig.fetchSorted(t, p, res.OutputKeys)
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if sortErr != nil {
		t.Fatalf("Sort: %v", sortErr)
	}
	return res, sorted
}

func TestSortProducesGlobalOrder(t *testing.T) {
	rig := newRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 5000, Seed: 1, Sorted: false})
	res, sorted := runSort(t, rig, recs, sortSpec(8))
	if res.Workers != 8 {
		t.Fatalf("workers = %d, want 8", res.Workers)
	}
	if len(res.OutputKeys) != 8 {
		t.Fatalf("output parts = %d, want 8", len(res.OutputKeys))
	}
	if len(sorted) != len(recs) {
		t.Fatalf("sorted count = %d, want %d", len(sorted), len(recs))
	}
	if !bed.IsSorted(sorted) {
		t.Fatal("concatenated output parts are not globally sorted")
	}
}

func TestSortPreservesRecords(t *testing.T) {
	rig := newRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 3000, Seed: 2, Sorted: false})
	_, sorted := runSort(t, rig, recs, sortSpec(5))
	want := recordMultiset(recs)
	got := recordMultiset(sorted)
	if len(want) != len(got) {
		t.Fatalf("distinct records: got %d, want %d", len(got), len(want))
	}
	for r, n := range want {
		if got[r] != n {
			t.Fatalf("record %+v count = %d, want %d", r, got[r], n)
		}
	}
}

func TestSortSingleWorker(t *testing.T) {
	rig := newRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 500, Seed: 3, Sorted: false})
	res, sorted := runSort(t, rig, recs, sortSpec(1))
	if len(res.OutputKeys) != 1 {
		t.Fatalf("parts = %d, want 1", len(res.OutputKeys))
	}
	if !bed.IsSorted(sorted) || len(sorted) != len(recs) {
		t.Fatal("single-worker sort incorrect")
	}
}

func TestSortMoreWorkersThanRecords(t *testing.T) {
	rig := newRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 5, Seed: 4, Sorted: false})
	_, sorted := runSort(t, rig, recs, sortSpec(16))
	if len(sorted) != 5 {
		t.Fatalf("sorted count = %d, want 5", len(sorted))
	}
	if !bed.IsSorted(sorted) {
		t.Fatal("not sorted")
	}
}

func TestSortAlreadySortedInput(t *testing.T) {
	rig := newRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 2000, Seed: 5, Sorted: true})
	_, sorted := runSort(t, rig, recs, sortSpec(4))
	if !bed.IsSorted(sorted) || len(sorted) != len(recs) {
		t.Fatal("sorted input mishandled")
	}
}

func TestSortAutoPlan(t *testing.T) {
	rig := newRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 3000, Seed: 6, Sorted: false})
	spec := sortSpec(0) // planner chooses
	spec.MaxWorkers = 32
	spec.WorkerMemBytes = 2 << 30
	res, sorted := runSort(t, rig, recs, spec)
	if !res.AutoPlanned {
		t.Fatal("AutoPlanned = false")
	}
	if res.Workers < 1 || res.Workers > 32 {
		t.Fatalf("planned workers = %d", res.Workers)
	}
	if res.Planned.Predicted <= 0 {
		t.Fatal("plan has no prediction")
	}
	if !bed.IsSorted(sorted) || len(sorted) != len(recs) {
		t.Fatal("auto-planned sort incorrect")
	}
}

func TestSortSizedPayloadTimingOnly(t *testing.T) {
	rig := newRig(t)
	var res Result
	var sortErr error
	rig.sim.Spawn("driver", func(p *des.Proc) {
		c := objectstore.NewClient(rig.store)
		_ = c.CreateBucket(p, "in")
		_ = c.CreateBucket(p, "out")
		if err := c.Put(p, "in", "data.bed", payload.Sized(3500e6)); err != nil {
			t.Errorf("put: %v", err)
			return
		}
		res, sortErr = rig.op.Sort(p, sortSpec(8))
		if sortErr != nil {
			return
		}
		// Outputs must exist and sum to the input size.
		var total int64
		for _, k := range res.OutputKeys {
			obj, err := c.Head(p, "out", k)
			if err != nil {
				t.Errorf("head %s: %v", k, err)
				return
			}
			total += obj.Size
		}
		if total != 3500e6 {
			t.Errorf("output bytes = %d, want 3.5e9", total)
		}
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if sortErr != nil {
		t.Fatalf("Sort: %v", sortErr)
	}
	if res.Phase1 <= 0 || res.Phase2 <= 0 {
		t.Fatalf("phases not timed: %+v", res)
	}
}

func TestSortEmptyInputFails(t *testing.T) {
	rig := newRig(t)
	var sortErr error
	rig.sim.Spawn("driver", func(p *des.Proc) {
		c := objectstore.NewClient(rig.store)
		_ = c.CreateBucket(p, "in")
		_ = c.CreateBucket(p, "out")
		_ = c.Put(p, "in", "data.bed", payload.Real(nil))
		_, sortErr = rig.op.Sort(p, sortSpec(4))
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if sortErr == nil {
		t.Fatal("empty input accepted")
	}
}

func TestSortMissingInputFails(t *testing.T) {
	rig := newRig(t)
	var sortErr error
	rig.sim.Spawn("driver", func(p *des.Proc) {
		c := objectstore.NewClient(rig.store)
		_ = c.CreateBucket(p, "in")
		_ = c.CreateBucket(p, "out")
		_, sortErr = rig.op.Sort(p, sortSpec(4))
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if sortErr == nil {
		t.Fatal("missing input accepted")
	}
}

func TestSortSpecValidation(t *testing.T) {
	rig := newRig(t)
	bad := []Spec{
		{OutputBucket: "out"},
		{InputBucket: "in", InputKey: "k"},
		{InputBucket: "in", InputKey: "k", OutputBucket: "out", Workers: -1},
	}
	for i, spec := range bad {
		var sortErr error
		s := spec
		rig.sim.Spawn("driver", func(p *des.Proc) {
			_, sortErr = rig.op.Sort(p, s)
		})
		if err := rig.sim.Run(); err != nil {
			t.Fatalf("sim: %v", err)
		}
		if sortErr == nil {
			t.Errorf("spec %d accepted: %+v", i, spec)
		}
	}
}

func TestSortResultTimings(t *testing.T) {
	rig := newRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 2000, Seed: 7, Sorted: false})
	res, _ := runSort(t, rig, recs, sortSpec(4))
	if res.Sample <= 0 {
		t.Fatalf("Sample duration = %v, want > 0", res.Sample)
	}
	if res.Phase1 <= 0 || res.Phase2 <= 0 {
		t.Fatalf("phase timings = %v / %v", res.Phase1, res.Phase2)
	}
	if res.TotalBytes <= 0 {
		t.Fatal("TotalBytes not set")
	}
}

func TestPartitionIndex(t *testing.T) {
	boundAt := func(start int64) boundary {
		return boundary{Key: bed.KeyOf(bed.Record{Chrom: "chr1", Start: start, End: start + 1}), Name: "chr1"}
	}
	keyAt := func(start int64) bed.Key {
		return bed.KeyOf(bed.Record{Chrom: "chr1", Start: start, End: start + 1})
	}
	bounds := []boundary{boundAt(20), boundAt(40), boundAt(60)}
	cases := map[int64]int{
		10: 0, 20: 1, 30: 1, 40: 2, 50: 2, 60: 3, 99: 3,
	}
	for start, want := range cases {
		if got := partitionIndex(keyAt(start), "chr1", bounds); got != want {
			t.Errorf("partitionIndex(start=%d) = %d, want %d", start, got, want)
		}
	}
	if got := partitionIndex(keyAt(5), "chr1", nil); got != 0 {
		t.Errorf("nil boundaries partition = %d, want 0", got)
	}
	// A key equal to a boundary except in End still routes right of it
	// only when it is strictly greater (End is part of the key).
	onBoundary := bed.KeyOf(bed.Record{Chrom: "chr1", Start: 20, End: 21})
	past := bed.KeyOf(bed.Record{Chrom: "chr1", Start: 20, End: 22})
	before := bed.KeyOf(bed.Record{Chrom: "chr1", Start: 20, End: 20})
	if got := partitionIndex(onBoundary, "chr1", bounds); got != 1 {
		t.Errorf("boundary key partition = %d, want 1", got)
	}
	if got := partitionIndex(past, "chr1", bounds); got != 1 {
		t.Errorf("past-boundary key partition = %d, want 1", got)
	}
	if got := partitionIndex(before, "chr1", bounds); got != 0 {
		t.Errorf("pre-boundary key partition = %d, want 0", got)
	}
	// Beyond-table scaffolds colliding in the key's 8-byte prefix are
	// routed by full name: a boundary on the lexically-later scaffold
	// keeps an earlier-name/later-start record left of it.
	scafBound := boundary{
		Key:  bed.KeyOf(bed.Record{Chrom: "chrUn_KI270303v1", Start: 50, End: 51}),
		Name: "chrUn_KI270303v1",
	}
	earlierName := bed.KeyOf(bed.Record{Chrom: "chrUn_KI270302v1", Start: 5000, End: 5001})
	if got := partitionIndex(earlierName, "chrUn_KI270302v1", []boundary{scafBound}); got != 0 {
		t.Errorf("earlier scaffold routed to %d, want 0 (name must trump start)", got)
	}

	// A mapper cuts its sorted lines by the same rule: the cases above,
	// one line each, fed in reverse so that finish sorts, land in the
	// runs the router names, the lines equal to a boundary right of it.
	line := func(chrom string, start, end int64) []byte {
		return bed.AppendTSV(nil, bed.Record{Chrom: chrom, Start: start, End: end, Name: ".", Strand: '+'})
	}
	cutInto := func(bounds []boundary, lines ...[]byte) [][]byte {
		var span []byte
		for i := len(lines) - 1; i >= 0; i-- {
			span = append(span, lines[i]...)
		}
		b := &runBuilder{bounds: bounds, fanOut: len(bounds) + 1}
		if err := forEachLine(span, b.addLine); err != nil {
			t.Fatal(err)
		}
		return b.finish(span)
	}
	var lines [][]byte
	want := make([][]byte, len(bounds)+1)
	for i, start := range []int64{10, 20, 20, 30, 40, 50, 60, 99} {
		end := start + 1
		if i == 2 {
			end = start + 2 // past the boundary at 20 in End only
		}
		lines = append(lines, line("chr1", start, end))
		r := []int{0, 1, 1, 1, 2, 2, 3, 3}[i]
		want[r] = append(want[r], lines[i]...)
	}
	for r, got := range cutInto(bounds, lines...) {
		if !bytes.Equal(got, want[r]) {
			t.Errorf("cut run %d = %q, want %q", r, got, want[r])
		}
	}
	if got := cutInto([]boundary{scafBound}, line("chrUn_KI270302v1", 5000, 5001)); got[0] == nil || got[1] != nil {
		t.Errorf("earlier scaffold cut into %q, want run 0 (name must trump start)", got)
	}
}

func TestSplitRanges(t *testing.T) {
	var lens [3]int64
	prevEnd := int64(0)
	for i := range lens {
		off, n := EvenShare(10, 3, i)
		if off != prevEnd {
			t.Fatalf("gap at %d", off)
		}
		prevEnd = off + n
		lens[i] = n
	}
	if prevEnd != 10 {
		t.Fatalf("total = %d, want 10", prevEnd)
	}
	if lens != [3]int64{4, 3, 3} {
		t.Fatalf("lengths = %v, want 4/3/3", lens)
	}
}

// TestConcurrentSortsGetDistinctJobIDs: one operator shared by
// concurrently running jobs (a session rig's Submit pattern) must
// allocate distinct job IDs — otherwise their scratch keys collide and
// records leak across jobs. Job-ID allocation is atomic; the jobs here
// run interleaved in one sim and both must come out complete and
// sorted.
func TestConcurrentSortsGetDistinctJobIDs(t *testing.T) {
	rig := newRig(t)
	recsA := bed.Generate(bed.GenConfig{Records: 1200, Seed: 91, Sorted: false})
	recsB := bed.Generate(bed.GenConfig{Records: 900, Seed: 92, Sorted: false})
	var sortedA, sortedB []bed.Record
	var errA, errB error
	rig.sim.Spawn("setup", func(p *des.Proc) {
		c := objectstore.NewClient(rig.store)
		_ = c.CreateBucket(p, "in")
		_ = c.CreateBucket(p, "out")
		_ = c.Put(p, "in", "a.bed", payload.RealNoCopy(bed.Marshal(recsA)))
		_ = c.Put(p, "in", "b.bed", payload.RealNoCopy(bed.Marshal(recsB)))
	})
	rig.sim.Spawn("driver-a", func(p *des.Proc) {
		p.Sleep(50 * time.Millisecond) // let setup's Puts land
		spec := sortSpec(4)
		spec.InputKey = "a.bed"
		spec.OutputPrefix = "sorted/a/"
		var res Result
		if res, errA = rig.op.Sort(p, spec); errA == nil {
			sortedA = rig.fetchSorted(t, p, res.OutputKeys)
		}
	})
	rig.sim.Spawn("driver-b", func(p *des.Proc) {
		p.Sleep(50 * time.Millisecond)
		spec := sortSpec(4)
		spec.InputKey = "b.bed"
		spec.OutputPrefix = "sorted/b/"
		var res Result
		if res, errB = rig.op.Sort(p, spec); errB == nil {
			sortedB = rig.fetchSorted(t, p, res.OutputKeys)
		}
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if errA != nil || errB != nil {
		t.Fatalf("concurrent sorts failed: %v / %v", errA, errB)
	}
	if len(sortedA) != len(recsA) || !bed.IsSorted(sortedA) {
		t.Fatalf("job A corrupted by concurrent job: %d records", len(sortedA))
	}
	if len(sortedB) != len(recsB) || !bed.IsSorted(sortedB) {
		t.Fatalf("job B corrupted by concurrent job: %d records", len(sortedB))
	}
}

func TestDuplicateOperatorRegistrationFails(t *testing.T) {
	rig := newRig(t)
	if _, err := NewOperator(rig.pf, rig.store, nil); err == nil {
		t.Fatal("second operator on one platform accepted")
	}
}

// TestRegisteredFunctionNames pins the five names the operators
// register: they key the platform's warm pools and name its spawned
// processes, so renaming one moves fired logs.
func TestRegisteredFunctionNames(t *testing.T) {
	got := [5]string{mapFn, reduceFn, repartitionFn, cacheMapFn, cacheReduceFn}
	want := [5]string{"shuffle/map", "shuffle/reduce", "shuffle/repartition", "cacheshuffle/map", "cacheshuffle/reduce"}
	if got != want {
		t.Fatalf("registered function names = %q, want %q", got, want)
	}
}
