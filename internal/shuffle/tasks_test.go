package shuffle

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/des/destest"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

// TestTasksMatchWaves pins what job.task builds to the wave list it is
// built from, with no simulation: each task of wave i gathers exactly
// fanIn_i runs (or reads its slice of the input where the fan-in is 0)
// and writes exactly fanOut_i; the slices tile the input; every run key
// wave i writes is read exactly once, by wave i+1, and the runs one task
// gathers were all written for the same place of their writers' fan-out
// (one key range); the reducers' outputs
// are OutputKey(prefix, 0..w-1); and a subset launch (the cache store's
// regeneration and re-reduce) builds the same tasks as the full one at
// those indexes.
func TestTasksMatchWaves(t *testing.T) {
	const size = 1<<20 + 7
	runs := &storeRuns{bucket: "out"}
	for _, w := range []int{1, 2, 6, 8, 12, 97, 128} {
		shapes := []int{0} // one level, then every divisor
		for g := 1; g <= w; g++ {
			if w%g == 0 {
				shapes = append(shapes, g)
			}
		}
		for _, g := range shapes {
			j := &job{
				runs: runs, id: "t-0001", size: size, workers: w,
				spec: Spec{InputBucket: "in", InputKey: "data.bed", OutputBucket: "out", OutputPrefix: "sorted/", Groups: g},
			}
			if g > 0 {
				j.spec.Exchange = ViaStoreTwoLevel
			}
			if err := j.layout(PlanInput{DataBytes: size, PartitionBps: 1, MergeBps: 1}, medium{}, medium{}); err != nil {
				t.Fatalf("w=%d g=%d: %v", w, g, err)
			}
			if want := 2 + min(g, 1); len(j.waves) != want {
				t.Fatalf("w=%d g=%d: %d waves, want %d", w, g, len(j.waves), want)
			}
			type origin struct{ wave, place int }
			writer := map[string]origin{} // run key -> who wrote it
			for i, wv := range j.waves {
				read, next := 0, int64(0)
				for at := 0; at < w; at++ {
					tk := j.task(i, at, runs)
					if tk.wave != &j.waves[i] {
						t.Fatalf("w=%d g=%d wave %d task %d works at another wave's rates", w, g, i, at)
					}
					if len(tk.sources) != wv.fanIn {
						t.Fatalf("w=%d g=%d wave %d task %d gathers %d runs, fan-in %d", w, g, i, at, len(tk.sources), wv.fanIn)
					}
					if wv.fanIn == 0 {
						if tk.inBucket != "in" || tk.inKey[0] != "data.bed" || tk.size != size || tk.off != next {
							t.Fatalf("w=%d g=%d task %d reads %s/%s [%d,+%d) of %d, want offset %d", w, g, at, tk.inBucket, tk.inKey[0], tk.off, tk.n, tk.size, next)
						}
						next += tk.n
					}
					for _, key := range tk.sources {
						from, ok := writer[key]
						if !ok || from.wave != i-1 || from.place != writer[tk.sources[0]].place {
							t.Fatalf("w=%d g=%d wave %d task %d reads %s, written by %+v (found %v), beside place %d",
								w, g, i, at, key, from, ok, writer[tk.sources[0]].place)
						}
						read++
					}
					for _, key := range tk.sources {
						delete(writer, key) // a second reader fails the lookup
					}
					if wv.fanOut == 0 {
						if tk.outBucket != "out" || tk.outKey != OutputKey("sorted/", at) {
							t.Fatalf("w=%d g=%d reducer %d writes %s/%s", w, g, at, tk.outBucket, tk.outKey)
						}
					}
					for r := 0; r < wv.fanOut; r++ {
						key := tk.runKey(r)
						if _, dup := writer[key]; dup {
							t.Fatalf("w=%d g=%d wave %d task %d writes %s a second time", w, g, i, at, key)
						}
						writer[key] = origin{i, r}
					}
				}
				if wv.fanIn == 0 && next != size {
					t.Fatalf("w=%d g=%d: slices end at %d of %d", w, g, next, size)
				}
				if read != w*wv.fanIn || len(writer) != w*wv.fanOut {
					t.Fatalf("w=%d g=%d wave %d: %d runs read and %d left unread, want %d and %d", w, g, i, read, len(writer), w*wv.fanIn, w*wv.fanOut)
				}

				subset := []int{w - 1, w / 2, 0}
				full, part := j.inputs(i, nil, runs), j.inputs(i, subset, runs)
				for n, at := range subset {
					if !reflect.DeepEqual(part[n], full[at]) {
						t.Fatalf("w=%d g=%d wave %d: subset launch builds task %d as %+v, the full one %+v", w, g, i, at, part[n], full[at])
					}
				}
			}
		}
	}
}

// TestRunKeysAreBuiltOnce: a job builds each run's key once. The key a
// writer stores a run under (task.runKey, what its put's each returns)
// is the very string, by the address of its bytes, that the run's reader
// opens it by (sources[m]), so the store's map key and the reader's are
// one; and building a wave's tasks builds no key: the reduce wave's w
// tasks cost w allocations beside the inputs slice, one-level and
// two-level.
func TestRunKeysAreBuiltOnce(t *testing.T) {
	const size = 1 << 20
	runs := &storeRuns{bucket: "out"}
	for _, c := range []struct{ w, g int }{{1, 0}, {8, 0}, {97, 0}, {128, 0}, {8, 2}, {12, 3}, {128, 8}} {
		j := &job{
			runs: runs, id: "t-0001", size: size, workers: c.w,
			spec: Spec{InputBucket: "in", InputKey: "data.bed", OutputBucket: "out", OutputPrefix: "sorted/", Groups: c.g},
		}
		if c.g > 0 {
			j.spec.Exchange = ViaStoreTwoLevel
		}
		if err := j.layout(PlanInput{DataBytes: size, PartitionBps: 1, MergeBps: 1}, medium{}, medium{}); err != nil {
			t.Fatalf("w=%d g=%d: %v", c.w, c.g, err)
		}
		for i := 1; i < len(j.waves); i++ {
			written := map[string]*byte{}
			for at := range c.w {
				tk := j.task(i-1, at, runs)
				for r := range tk.wave.fanOut {
					key := tk.runKey(r)
					written[key] = unsafe.StringData(key)
				}
			}
			for at := range c.w {
				tk := j.task(i, at, runs)
				for m, key := range tk.sources {
					if ptr, ok := written[key]; !ok || ptr != unsafe.StringData(key) {
						t.Fatalf("w=%d g=%d wave %d task %d source %d %s: written %v, as another string %v",
							c.w, c.g, i, at, m, key, ok, ok && ptr != unsafe.StringData(key))
					}
				}
			}
		}
		if destest.Race {
			continue // the detector allocates
		}
		last := len(j.waves) - 1
		if n := testing.AllocsPerRun(10, func() { _ = j.inputs(last, nil, runs) }); n != float64(c.w+1) {
			t.Errorf("w=%d g=%d: building the reduce wave's tasks allocates %.0f times, want %d (the tasks and the slice)",
				c.w, c.g, n, c.w+1)
		}
	}
}

// TestReadyGrowsTheBucketForEveryKey: a store sort's ready grows its
// bucket once for every key the job will write, its runs' and its
// output parts', one-level and two-level: PUTs of all of them after it
// allocate nothing, where the same PUTs into a bucket not grown rehash
// their way there. The count is the process's, so each case is measured
// three times afresh and the fewest taken.
func TestReadyGrowsTheBucketForEveryKey(t *testing.T) {
	if destest.Race {
		t.Skip("the race detector allocates")
	}
	const size = 1 << 20
	body := payload.Sized(100)
	// Eight keys or fewer fit the group a map makes at its first insert,
	// grown or not: the smallest case writes 12 x 12 runs and 12 parts.
	// A map made for 21 x 21 keys holds 448, short of the runs and parts
	// together (462), so a count that left out the parts would show.
	for _, c := range []struct{ w, g int }{{12, 0}, {21, 0}, {128, 0}, {12, 3}, {128, 8}} {
		sim, store, _ := readPinRig(t)
		mallocs := map[bool]uint64{}
		sim.Spawn("driver", func(p *des.Proc) {
			for try := range 3 {
				for _, ready := range []bool{true, false} {
					bucket := fmt.Sprintf("out-%v-%d", ready, try)
					runs := &storeRuns{bucket: bucket}
					j := &job{
						op: &Operator{store: store}, runs: runs, id: "t-0001", size: size, workers: c.w,
						spec: Spec{InputBucket: "in", InputKey: "data.bed", OutputBucket: bucket, OutputPrefix: "sorted/", Groups: c.g},
					}
					if c.g > 0 {
						j.spec.Exchange = ViaStoreTwoLevel
					}
					if err := store.CreateBucket(p, bucket); err != nil {
						t.Error(err)
						return
					}
					if err := j.layout(PlanInput{DataBytes: size, PartitionBps: 1, MergeBps: 1}, medium{}, medium{}); err != nil {
						t.Errorf("w=%d g=%d: %v", c.w, c.g, err)
						return
					}
					if ready {
						if err := runs.ready(p, j); err != nil {
							t.Error(err)
							return
						}
					}
					keys := slices.Concat(append(j.runKeys, j.res.OutputKeys)...)
					client := objectstore.NewClient(store)
					each := func(i int) (string, payload.Payload) { return keys[i], body }
					runtime.GC()
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					stored, err := client.PutEach(p, bucket, len(keys), each)
					runtime.ReadMemStats(&after)
					if stored != len(keys) || err != nil {
						t.Errorf("PutEach: %d of %d, %v", stored, len(keys), err)
						return
					}
					if got := after.Mallocs - before.Mallocs; try == 0 || got < mallocs[ready] {
						mallocs[ready] = got
					}
				}
			}
		})
		if err := sim.Run(); err != nil {
			t.Fatalf("w=%d g=%d: %v", c.w, c.g, err)
		}
		if mallocs[true] != 0 {
			t.Errorf("w=%d g=%d: the job's keys into a bucket ready grew: %d allocations, want 0", c.w, c.g, mallocs[true])
		}
		if mallocs[false] == 0 {
			t.Errorf("w=%d g=%d: the job's keys into a bucket not grown: no allocation; the measure sees nothing", c.w, c.g)
		}
	}
}
