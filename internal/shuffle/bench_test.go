package shuffle

import (
	"fmt"
	"sort"
	"testing"

	"github.com/faaspipe/faaspipe/internal/bed"
)

// The data-plane benchmarks time the bodies the handlers run — the
// chunk-fed line reader, the mapper's sort and cut, the streamed k-way
// merge and merge-split — on fixed workloads (20k records, seed 11, 8
// reducers). The string-keyed and whole-buffer twins they were measured
// against are retired; their numbers are in `git show 80bdab0:BENCH_10.json`.

func benchRecords() []bed.Record {
	return bed.Generate(bed.GenConfig{Records: 20000, Seed: 11, Sorted: false})
}

func benchBounds(recs []bed.Record, workers int) []boundary {
	keys := make([]boundary, len(recs))
	for i, r := range recs {
		keys[i] = boundary{Key: bed.KeyOf(r), Name: r.Chrom}
	}
	sort.Slice(keys, func(i, j int) bool {
		return bed.CompareKeyName(keys[i].Key, keys[i].Name, keys[j].Key, keys[j].Name) < 0
	})
	bounds := make([]boundary, workers-1)
	for i := 1; i < workers; i++ {
		bounds[i-1] = keys[i*len(keys)/workers]
	}
	return bounds
}

// BenchmarkMapStream is the streaming map body: the whole object as
// one slice read by a lineReader in 64 KiB chunks (partial trailing lines
// carried across chunks), indexed by the run builder and cut into runs
// copied from the chunks it kept, the reader's kept slice reserved for
// every chunk of the read as readSlice reserves it. The chunk payloads
// are built before the timer starts.
func BenchmarkMapStream(b *testing.B) {
	recs := benchRecords()
	raw := bed.Marshal(recs)
	bounds := benchBounds(recs, 8)
	chunks := cutChunks(raw, []int{64 << 10})
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	tk := &task{wave: &wave{fanOut: 8}, n: int64(len(raw)), size: int64(len(raw)), bounds: bounds}
	for i := 0; i < b.N; i++ {
		src := chunks
		r := &lineReader{src: &src, m: &meter{clock: freeClock{}}, keep: len(chunks)}
		builder, err := tk.indexSlice(r)
		if err != nil {
			b.Fatal(err)
		}
		builder.finish(r.span())
	}
}

// benchRuns builds 8 sorted runs covering the benchmark records.
func benchRuns(b *testing.B) ([][]byte, int64) {
	b.Helper()
	recs := benchRecords()
	bed.Sort(recs)
	const w = 8
	lists := make([][]bed.Record, w)
	for i, r := range recs {
		lists[i%w] = append(lists[i%w], r)
	}
	runs := make([][]byte, w)
	var total int64
	for i, rl := range lists {
		runs[i] = bed.Marshal(rl)
		total += int64(len(runs[i]))
	}
	return runs, total
}

// BenchmarkPartitionSort is the mapper's post-transfer work alone —
// runBuilder.finish sorting one unsorted slice's index and cutting its
// lines into 8 runs — at sizes where the index has outgrown cache.
func BenchmarkPartitionSort(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 18} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			recs := bed.Generate(bed.GenConfig{Records: n, Seed: 19, Sorted: false})
			pristine := indexOf(recs)
			bounds := benchBounds(recs, 8)
			b.SetBytes(int64(len(pristine.buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rb, err := newRunBuilder(8, bounds, int64(len(pristine.buf)), len(pristine.refs))
				if err != nil {
					b.Fatal(err)
				}
				rb.refs = append(rb.refs, pristine.refs...)
				rb.size = len(pristine.buf)
				var total int
				for _, run := range rb.finish(pristine.buf) {
					total += len(run)
				}
				if total != len(pristine.buf) {
					b.Fatal("short runs")
				}
			}
		})
	}
}

// BenchmarkSortRun is the VM leg's body: SortRun on 200k unsorted
// records (seed 7), the one-partition run builder fed every line and
// finished with one radix sort.
func BenchmarkSortRun(b *testing.B) {
	raw := bed.Marshal(bed.Generate(bed.GenConfig{Records: 200000, Seed: 7}))
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SortRun(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRepartitionInput builds what one hierarchical round-2
// repartitioner gathers: g sorted runs (round-1 outputs) plus the fine
// boundaries for its k reducers.
func benchRepartitionInput() ([][]byte, []boundary, int64) {
	recs := bed.Generate(bed.GenConfig{Records: 40000, Seed: 23, Sorted: false})
	const g, k = 4, 8
	lists := make([][]bed.Record, g)
	for i, r := range recs {
		lists[i%g] = append(lists[i%g], r)
	}
	runs := make([][]byte, g)
	var total int64
	for i, rl := range lists {
		bed.Sort(rl)
		runs[i] = bed.Marshal(rl)
		total += int64(len(runs[i]))
	}
	return runs, benchBounds(recs, k), total
}

// BenchmarkRepartition is the hierarchy's round-2 repartition body:
// the streamed merge over g runs in 64 KiB chunks, routed into a
// runSplitter.
func BenchmarkRepartition(b *testing.B) {
	runs, bounds, total := benchRepartitionInput()
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		split := newRunSplitter(8, bounds, total)
		if sized, _, err := mergeStreamedRuns(&meter{clock: freeClock{}}, chunkedSources(runs, 64<<10), split.emit); err != nil || sized {
			b.Fatalf("merge-split: err=%v sized=%v", err, sized)
		}
	}
}

// BenchmarkReduceStream is the streamed reducer body: 8 sorted runs
// fed through chunk-fed cursors in 64 KiB chunks — partial trailing
// lines carried across chunk boundaries in the alternating carry
// buffers.
func BenchmarkReduceStream(b *testing.B) {
	runs, total := benchRuns(b)
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out int64
		sized, _, err := mergeStreamedRuns(&meter{clock: freeClock{}}, chunkedSources(runs, 64<<10), func(key bed.Key, line []byte) error {
			out += int64(len(line)) + 1
			return nil
		})
		if err != nil || sized || out != total {
			b.Fatalf("merge: err=%v sized=%v out=%d want %d", err, sized, out, total)
		}
	}
}
