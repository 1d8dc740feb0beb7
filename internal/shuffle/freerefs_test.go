package shuffle

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/des/destest"
)

// freeIndexes returns the free list's length and the bytes its arrays
// hold.
func freeIndexes() (n int, bytes uint64) {
	keyIndexes.Mu.Lock()
	defer keyIndexes.Mu.Unlock()
	for _, r := range keyIndexes.Items {
		bytes += uint64(cap(r)) * uint64(unsafe.Sizeof(bed.KeyRef{}))
	}
	return len(keyIndexes.Items), bytes
}

// allocatedBy returns the bytes run allocates with the collector left
// alone ("none"), run twice just before it ("between", which empties
// what a sync.Pool holds), or run over and over beside it ("mid"). It
// first waits for all but base goroutines to exit: a simulation's exit
// after its Run returns, and a run that starts before they have would
// allocate the runtime's own goroutine records afresh, 448 bytes each.
func allocatedBy(t *testing.T, base int, gc string, run func()) uint64 {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 1e6 {
			t.Fatalf("%d goroutines left running, want %d", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
	if gc == "between" {
		runtime.GC()
		runtime.GC()
	}
	stop, done := make(chan struct{}), make(chan struct{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if gc == "mid" {
		started := make(chan struct{})
		go func() {
			defer close(done)
			close(started)
			for {
				select {
				case <-stop:
					return
				default:
					runtime.GC()
				}
			}
		}()
		<-started // on one P too, the first collection overlaps the run
	}
	run()
	if gc == "mid" {
		close(stop)
		<-done
	}
	runtime.ReadMemStats(&after)
	if gc == "mid" && after.NumGC == before.NumGC {
		t.Fatal("no collection fell inside the run")
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestRepAllocatesTheSameBytesWhateverTheGC runs a sort as the
// benchmark's reps do, each on a fresh rig: a real-bytes sort once
// through Operator.Sort (the store exchange, 8 workers) and once through
// SortRun (the VM's sort), and a sized store sort of 32 workers. The
// first run of each, on empty free lists, allocates the key indexes and
// the reducers' read sets; every later run, whether a collection falls
// between runs or inside one, must allocate the same bytes within 8 KiB
// and none of those indexes or sets. A sync.Pool, which drops what
// survives two collections, failed it.
func TestRepAllocatesTheSameBytesWhateverTheGC(t *testing.T) {
	if destest.Race {
		t.Skip("the race detector allocates")
	}
	const slack = 8 << 10
	recs := bed.Generate(bed.GenConfig{Records: 40000, Seed: 51})
	raw := bed.Marshal(recs)
	want := sortedTSV(recs)
	paths := []struct {
		name string
		run  func()
	}{
		{"Operator.Sort", func() {
			rig := newRig(t)
			var sorted []byte
			var sortErr error
			rig.sim.Spawn("driver", func(p *des.Proc) {
				rig.loadInput(t, p, recs)
				var res Result
				if res, sortErr = rig.op.Sort(p, sortSpec(8)); sortErr == nil {
					sorted = fetchRawParts(t, rig, p, res.OutputKeys)
				}
			})
			if err := rig.sim.Run(); err != nil || sortErr != nil {
				t.Fatalf("sort: %v, %v", err, sortErr)
			}
			if !bytes.Equal(sorted, want) {
				t.Fatal("the sort's output is not bed.Sort's")
			}
		}},
		{"SortRun", func() {
			out, err := SortRun(raw)
			if err != nil || !bytes.Equal(out, want) {
				t.Fatalf("SortRun: %v, or its output is not bed.Sort's", err)
			}
		}},
		{"sized Operator.Sort", func() { runSized(t, sizedRig(t, 0), sizedSpec(32)) }},
	}
	// One P, as the benchmark runs: on more, a goroutine finds the
	// runtime's caches of goroutine records and channel waiters on
	// another P's list as the OS schedules them, and allocates afresh,
	// 12 KiB in some runs of this sort.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	base := runtime.NumGoroutine()
	for _, path := range paths {
		destest.EmptyFreeList(t, &keyIndexes)
		destest.EmptyFreeList(t, &readSets)
		cold := allocatedBy(t, base, "none", path.run)
		_, index := freeIndexes()
		index += freeSetBytes()
		if index == 0 {
			t.Fatalf("%s: the first run left no index or read set on the free lists", path.name)
		}
		var first uint64
		for _, gc := range []string{"none", "between", "mid"} {
			for rep := range 2 {
				got := allocatedBy(t, base, gc, path.run)
				if first == 0 {
					first = got
				}
				if got > first+slack || first > got+slack {
					t.Errorf("%s, GC %s, rep %d: %d bytes, the first warm run %d", path.name, gc, rep, got, first)
				}
				if got+index > cold+slack {
					t.Errorf("%s, GC %s, rep %d: %d bytes, the first run %d less its %d bytes of indexes and read sets",
						path.name, gc, rep, got, cold, index)
				}
			}
		}
	}
}

// sortedTSV returns recs sorted, as bed.Marshal writes them.
func sortedTSV(recs []bed.Record) []byte {
	sorted := slices.Clone(recs)
	bed.Sort(sorted)
	return bed.Marshal(sorted)
}

// TestLiveBuildersGetDisjointIndexes opens eight builders at once, as
// the eight mappers of a wave are, feeds them their lines interleaved,
// and holds each index to its own array and each builder's runs to
// route-and-sort's.
func TestLiveBuildersGetDisjointIndexes(t *testing.T) {
	destest.EmptyFreeList(t, &keyIndexes)
	for _, n := range []int{120, 3000, 400} {
		keyIndexes.Put(make([]bed.KeyRef, 5, n)) // free indexes holding stale entries
	}
	const live = 8
	raws := make([][]byte, live)
	builders := make([]runBuilder, live)
	offs := make([]int, live)
	bounds := benchBounds(bed.Generate(bed.GenConfig{Records: 200, Seed: 3}), 4)
	for i := range builders {
		raws[i] = bed.Marshal(bed.Generate(bed.GenConfig{Records: 100 + 50*i, Seed: int64(i)}))
		var err error
		// Each index is taken for its lines, so none outgrows its array.
		if builders[i], err = newRunBuilder(4, bounds, int64(len(raws[i])), 100+50*i); err != nil {
			t.Fatal(err)
		}
	}
	for more := true; more; {
		more = false
		for i := range builders {
			if offs[i] == len(raws[i]) {
				continue
			}
			more = true
			nl := bytes.IndexByte(raws[i][offs[i]:], '\n')
			if err := builders[i].addLine(raws[i][offs[i]:offs[i]+nl], offs[i], true); err != nil {
				t.Fatal(err)
			}
			offs[i] += nl + 1
		}
	}
	for i := range builders {
		a := builders[i].refs[:cap(builders[i].refs)]
		for j := range i {
			b := builders[j].refs[:cap(builders[j].refs)]
			if overlaps(a, b) {
				t.Fatalf("builders %d and %d share an index array", j, i)
			}
		}
	}
	for i := range builders {
		want, err := routeAndSort(bytes.Split(bytes.TrimSuffix(raws[i], []byte{'\n'}), []byte{'\n'}), 4, bounds)
		if err != nil {
			t.Fatal(err)
		}
		checkRuns(t, builders[i].finish(raws[i]), want)
	}
}

// overlaps reports that two indexes share any element of their arrays.
func overlaps(a, b []bed.KeyRef) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	size := unsafe.Sizeof(bed.KeyRef{})
	a0, b0 := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	return a0 < b0+uintptr(len(b))*size && b0 < a0+uintptr(len(a))*size
}

// TestMapperHintSkipsTheVMSizedIndex frees the VM's 500,001-entry index
// beside a mapper's: a mapper-sized hint must be served the mapper's,
// leaving the VM's for the next VM sort, and a hint above every free
// index takes the place of the largest.
func TestMapperHintSkipsTheVMSizedIndex(t *testing.T) {
	destest.EmptyFreeList(t, &keyIndexes)
	const vm, mapper = 500_001, 66_450
	keyIndexes.Put(make([]bed.KeyRef, 0, vm))
	keyIndexes.Put(make([]bed.KeyRef, 0, mapper))
	keyIndexes.Put(make([]bed.KeyRef, 0, 100))
	if got := cap(keyIndexes.Take(62_500)); got != mapper {
		t.Fatalf("a hint of 62,500 was served %d entries, want the mapper's %d", got, mapper)
	}
	if got := cap(keyIndexes.Take(vm)); got != vm {
		t.Fatalf("the VM's hint was served %d entries, want its own %d", got, vm)
	}
	if got := cap(keyIndexes.Take(vm + 1)); got != vm+1 {
		t.Fatalf("a hint past every free index was served %d entries, want %d", got, vm+1)
	}
	if n, _ := freeIndexes(); n != 0 {
		t.Fatalf("%d indexes left free, want none: the regrown one gives up its place", n)
	}
}

// TestFreeListNeverOutgrowsThePeakOfLiveBuilders opens and finishes
// builders in a seeded order, with hints from a mapper's to the VM's,
// and holds the free list to at most the most builders ever live at once.
func TestFreeListNeverOutgrowsThePeakOfLiveBuilders(t *testing.T) {
	destest.EmptyFreeList(t, &keyIndexes)
	rng := rand.New(rand.NewSource(51))
	line := bed.AppendTSV(nil, bed.Record{Chrom: "chr1", Start: 5, End: 6, Name: ".", Strand: '+'})
	var live []runBuilder
	peak := 0
	for step := range 2000 {
		if len(live) > 0 && (len(live) == 12 || rng.Intn(2) == 0) {
			i := rng.Intn(len(live))
			live[i].finish(line)
			live = append(live[:i], live[i+1:]...)
		} else {
			b, err := newRunBuilder(1, nil, int64(len(line)), 1+rng.Intn(1<<rng.Intn(18)))
			if err != nil {
				t.Fatal(err)
			}
			if err := b.addLine(line[:len(line)-1], 0, true); err != nil {
				t.Fatal(err)
			}
			live = append(live, b)
		}
		peak = max(peak, len(live))
		if n, _ := freeIndexes(); n > peak {
			t.Fatalf("step %d: %d free indexes, but at most %d builders were ever live", step, n, peak)
		}
	}
}

// TestIndexPutBackFullIsHandedOutEmpty puts back indexes that still
// hold entries, as finish does: the next builder's index must start
// empty, or its runs would carry the last mapper's lines.
func TestIndexPutBackFullIsHandedOutEmpty(t *testing.T) {
	destest.EmptyFreeList(t, &keyIndexes)
	full := make([]bed.KeyRef, 300, 400)
	keyIndexes.Put(full)
	if b, err := newRunBuilder(1, nil, 1, 200); err != nil || len(b.refs) != 0 || cap(b.refs) != 400 {
		t.Fatalf("a builder took an index of %d entries and room for %d (%v), want 0 and 400", len(b.refs), cap(b.refs), err)
	}
	raw := bed.Marshal(bed.Generate(bed.GenConfig{Records: 50, Seed: 9}))
	for range 3 {
		b, err := newRunBuilder(1, nil, int64(len(raw)), 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(b.refs) != 0 {
			t.Fatalf("a new builder's index holds %d entries", len(b.refs))
		}
		if err := forEachLine(raw, b.addLine); err != nil {
			t.Fatal(err)
		}
		if got := b.finish(raw)[0]; len(got) != len(raw) {
			t.Fatalf("a run of %d bytes from %d", len(got), len(raw))
		}
	}
}

// failingSource hands out its chunks and then err.
type failingSource struct {
	chunks chunkList
	err    error
}

func (s *failingSource) Next(p *des.Proc) (payload.Payload, error) {
	if len(s.chunks) == 0 {
		return nil, s.err
	}
	return s.chunks.Next(p)
}

func (s *failingSource) Close() {}

// TestFailedReadLeavesTheFreeListUsable fails a mapper's read after its
// builder was made, by a stream error and by a kill at a horizon inside
// the map wave: the builder's index is left to the collector, and the
// list serves the next sort, whose output must be right.
func TestFailedReadLeavesTheFreeListUsable(t *testing.T) {
	destest.EmptyFreeList(t, &keyIndexes)
	recs := bed.Generate(bed.GenConfig{Records: 20000, Seed: 52})
	raw := bed.Marshal(recs)
	spec := sortSpec(8)
	// A mapper's read spans many chunks and a tenth of the map wave, most
	// of which is the functions' cold start.
	spec.StreamChunkBytes, spec.PartitionBps = 8<<10, 1e7

	// A full sort leaves its eight indexes free.
	var sortAt time.Duration
	rig := newRig(t)
	var res Result
	rig.sim.Spawn("driver", func(p *des.Proc) {
		rig.loadInput(t, p, recs)
		sortAt = p.Now()
		var err error
		if res, err = rig.op.Sort(p, spec); err != nil {
			t.Errorf("sort: %v", err)
		}
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatal(err)
	}
	warm, _ := freeIndexes()

	// A stream error after the first chunk's lines were indexed.
	boom := errors.New("connection reset")
	tk := &task{wave: &wave{fanOut: 8}, n: int64(len(raw)), size: int64(len(raw))}
	r := &lineReader{src: &failingSource{chunks: cutChunks(raw[:64<<10], []int{64 << 10}), err: boom}, m: &meter{clock: freeClock{}}, keep: 1}
	if _, err := tk.indexSlice(r); !errors.Is(err, boom) {
		t.Fatalf("indexSlice over a failing stream: %v, want %v", err, boom)
	}
	if n, _ := freeIndexes(); n != warm-1 {
		t.Fatalf("%d free indexes after a failed read, want %d: the builder took one", n, warm-1)
	}

	// Kills at horizons inside the map wave: some must catch a mapper
	// between its first line and its finish.
	killed := false
	for k := 1; k < 16; k++ {
		before, _ := freeIndexes()
		rig := newRig(t)
		rig.sim.Spawn("driver", func(p *des.Proc) {
			rig.loadInput(t, p, recs)
			rig.op.Sort(p, spec)
		})
		horizon := sortAt + res.Sample + res.Phase1*time.Duration(k)/16
		if err := rig.sim.RunUntil(horizon); !errors.Is(err, des.ErrSimLimit) {
			t.Fatalf("RunUntil(%v): %v", horizon, err)
		}
		after, _ := freeIndexes()
		killed = killed || after < before
	}
	if !killed {
		t.Fatal("no horizon killed a mapper holding an index")
	}

	// The list still serves a sort, and is whole again after it.
	_, sorted := runSort(t, newRig(t), recs, spec)
	if !bytes.Equal(bed.Marshal(sorted), sortedTSV(recs)) {
		t.Fatal("the sort after the failed reads is not bed.Sort's")
	}
	if n, _ := freeIndexes(); n > 8 {
		t.Fatalf("%d free indexes after an 8-worker sort", n)
	}
}
