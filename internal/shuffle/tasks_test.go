package shuffle

import (
	"reflect"
	"testing"
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
						if tk.inBucket != "in" || tk.inKey != "data.bed" || tk.size != size || tk.off != next {
							t.Fatalf("w=%d g=%d task %d reads %s/%s [%d,+%d) of %d, want offset %d", w, g, at, tk.inBucket, tk.inKey, tk.off, tk.n, tk.size, next)
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
