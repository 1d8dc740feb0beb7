package shuffle

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/des/destest"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

// mergeChunks are the granularities the merge tests feed resident runs
// at: every byte its own chunk, chunks ending mid-line, and each run
// whole (0).
var mergeChunks = []int64{1, 7, 1009, 0}

// chunkedSources adapts resident runs to the production merge's input,
// chunk bytes at a time. payloadSource never parks, so the merge needs
// no des process.
func chunkedSources(runs [][]byte, chunk int64) []runSource {
	srcs := make([]runSource, len(runs))
	for i, run := range runs {
		srcs[i] = &payloadSource{pl: payload.RealNoCopy(run), chunk: chunk}
	}
	return srcs
}

// streamMerge is mergeStreamedRuns — the merge production runs —
// collecting its emits into one buffer.
func streamMerge(runs [][]byte, chunk int64) ([]byte, error) {
	var out []byte
	sized, _, err := mergeStreamedRuns(&meter{clock: freeClock{}}, chunkedSources(runs, chunk), func(_ bed.Key, line []byte) error {
		out = append(append(out, line...), '\n')
		return nil
	})
	if err == nil && sized {
		err = errors.New("real runs reported as sized")
	}
	return out, err
}

// mergeEverywhere merges runs with the streamed merge at every chunk
// size and with the mergeRuns oracle, requiring one answer.
func mergeEverywhere(t *testing.T, runs [][]byte) []byte {
	t.Helper()
	want, err := mergeRuns(runs)
	if err != nil {
		t.Fatalf("mergeRuns oracle: %v", err)
	}
	for _, chunk := range mergeChunks {
		got, err := streamMerge(runs, chunk)
		if err != nil {
			t.Fatalf("streamed merge (chunk %d): %v", chunk, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("streamed merge (chunk %d) differs from the oracle: %d vs %d bytes", chunk, len(got), len(want))
		}
	}
	return want
}

// mergeRejects requires the streamed merge at every chunk size, and
// the oracle, to refuse runs.
func mergeRejects(t *testing.T, runs [][]byte, what string) {
	t.Helper()
	if _, err := mergeRuns(runs); err == nil {
		t.Fatalf("%s accepted by mergeRuns", what)
	}
	for _, chunk := range mergeChunks {
		if _, err := streamMerge(runs, chunk); err == nil {
			t.Fatalf("%s accepted by the streamed merge (chunk %d)", what, chunk)
		}
	}
}

func marshalSorted(recs []bed.Record) []byte {
	s := make([]bed.Record, len(recs))
	copy(s, recs)
	bed.Sort(s)
	return bed.Marshal(s)
}

func TestRunBuilderEmitsSortedRuns(t *testing.T) {
	recs := bed.Generate(bed.GenConfig{Records: 3000, Seed: 71, Sorted: false})
	raw := bed.Marshal(recs)
	bounds := benchBounds(recs, 4)
	parts, err := partitionRaw(raw, false, 0, int64(len(raw)), 4, bounds)
	if err != nil {
		t.Fatalf("partitionRaw: %v", err)
	}
	var n int
	var prevLast bed.Key
	for i, part := range parts {
		got, err := bed.Unmarshal(part)
		if err != nil {
			t.Fatalf("partition %d: %v", i, err)
		}
		if !bed.IsSorted(got) {
			t.Fatalf("partition %d is not a sorted run", i)
		}
		if len(got) > 0 {
			first := bed.KeyOf(got[0])
			if i > 0 && bed.CompareKey(first, prevLast) < 0 {
				t.Fatalf("partition %d overlaps partition boundary", i)
			}
			prevLast = bed.KeyOf(got[len(got)-1])
		}
		n += len(got)
	}
	if n != len(recs) {
		t.Fatalf("partitioned %d records, want %d", n, len(recs))
	}
}

// TestRunBuilderAlreadySortedSkipsCopy: input already in key order
// round-trips byte for byte, and at a fan-out of 4 its runs are
// consecutive spans of the builder's own buffer, neither sorted nor
// copied.
func TestRunBuilderAlreadySortedSkipsCopy(t *testing.T) {
	recs := bed.Generate(bed.GenConfig{Records: 500, Seed: 72, Sorted: true})
	raw := bed.Marshal(recs)
	parts, err := partitionRaw(raw, false, 0, int64(len(raw)), 1, nil)
	if err != nil {
		t.Fatalf("partitionRaw: %v", err)
	}
	if !bytes.Equal(parts[0], raw) {
		t.Fatal("single-partition sorted input should round-trip byte-identically")
	}

	b := &runBuilder{bounds: benchBounds(recs, 4), fanOut: 4} // its own memory, no pooled slack
	if err := forEachLine(raw, b.addLine); err != nil {
		t.Fatal(err)
	}
	next := unsafe.SliceData(b.buf)
	runs := b.finish()
	for r, run := range runs {
		if len(run) == 0 || cap(run) != len(run) {
			t.Fatalf("run %d: %d bytes, capacity %d; want a non-empty run with none spare", r, len(run), cap(run))
		}
		if unsafe.SliceData(run) != next {
			t.Fatalf("run %d does not start where run %d ends in the builder's buffer", r, r-1)
		}
		next = (*byte)(unsafe.Add(unsafe.Pointer(next), len(run)))
	}
	if !bytes.Equal(bytes.Join(runs, nil), raw) {
		t.Fatal("the runs of sorted input do not join to it")
	}
}

func TestMergeRunsMatchesFullSort(t *testing.T) {
	recs := bed.Generate(bed.GenConfig{Records: 4000, Seed: 73, Sorted: false})
	raw := bed.Marshal(recs)
	bounds := benchBounds(recs, 8)
	runs, err := partitionRaw(raw, false, 0, int64(len(raw)), 8, bounds)
	if err != nil {
		t.Fatalf("partitionRaw: %v", err)
	}
	// Merging the runs of ONE mapper reproduces the mapper's whole
	// slice in sorted order (partition ranges are disjoint, so this
	// exercises both the heap and run exhaustion).
	merged := mergeEverywhere(t, runs)
	if want := marshalSorted(recs); !bytes.Equal(merged, want) {
		t.Fatal("merge of one mapper's runs != full sort of its records")
	}
}

func TestMergeRunsInterleaved(t *testing.T) {
	recs := bed.Generate(bed.GenConfig{Records: 999, Seed: 74, Sorted: false})
	bed.Sort(recs)
	const w = 5
	lists := make([][]bed.Record, w)
	for i, r := range recs {
		lists[i%w] = append(lists[i%w], r)
	}
	runs := make([][]byte, w)
	for i, rl := range lists {
		runs[i] = bed.Marshal(rl)
	}
	runs = append(runs, nil, []byte("\n\n")) // empty and blank-only runs
	merged := mergeEverywhere(t, runs)
	if !bytes.Equal(merged, bed.Marshal(recs)) {
		t.Fatal("interleaved merge != globally sorted serialization")
	}
}

func TestMergeRunsRejectsUnsortedRun(t *testing.T) {
	a := bed.Record{Chrom: "chr2", Start: 100, End: 101, Name: ".", Strand: '+'}
	b := bed.Record{Chrom: "chr1", Start: 5, End: 6, Name: ".", Strand: '+'}
	run := bed.AppendTSV(bed.AppendTSV(nil, a), b) // descending: invariant broken
	mergeRejects(t, [][]byte{run}, "unsorted run")
}

func TestMergeRunsRejectsCorruptLine(t *testing.T) {
	mergeRejects(t, [][]byte{[]byte("chr1\tnot-a-number\t2\n")}, "corrupt line")
}

func TestPartKeyMatchesLegacyFormat(t *testing.T) {
	for _, c := range []struct{ m, r int }{{0, 0}, {3, 7}, {42, 9999}} {
		want := fmt.Sprintf("job-1/m%04d_r%04d", c.m, c.r)
		if got := partKey("job-1", c.m, c.r); got != want {
			t.Errorf("partKey(%d, %d) = %q, want %q", c.m, c.r, got, want)
		}
	}
	// A job ID longer than the stack buffer grows the slice instead.
	long := strings.Repeat("j", 100)
	if got, want := partKey(long, 1, 2), long+"/m0001_r0002"; got != want {
		t.Errorf("partKey of a 100-byte job ID = %q, want %q", got, want)
	}
	if destest.Race {
		return // the detector allocates
	}
	if n := testing.AllocsPerRun(100, func() { _ = partKey("hiershuffle-0002-r2-g0007", 127, 127) }); n != 1 {
		t.Errorf("partKey: %.0f allocations, want 1 (the string)", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = OutputKey("sorted/", 127) }); n != 1 {
		t.Errorf("OutputKey: %.0f allocations, want 1 (the string)", n)
	}
}

func TestOutputKeyMatchesLegacyFormat(t *testing.T) {
	for _, idx := range []int{0, 7, 321, 9999} {
		want := fmt.Sprintf("sorted/part-%04d", idx)
		if got := OutputKey("sorted/", idx); got != want {
			t.Errorf("OutputKey(%d) = %q, want %q", idx, got, want)
		}
	}
}

// TestOutputKeyAtTheWidthTransitions pins the one definition of an output
// part's name, the function strategies' and the VM strategy's, where its
// width changes: byte for byte, and sorted bytewise in index order.
func TestOutputKeyAtTheWidthTransitions(t *testing.T) {
	want := []string{"p/part-0000", "p/part-9999", "p/part-x00010000", "p/part-y0000000000100000000"}
	for i, idx := range []int{0, 9999, 10000, 100000000} {
		if got := OutputKey("p/", idx); got != want[i] {
			t.Errorf("OutputKey(%d) = %q, want %q", idx, got, want[i])
		}
	}
	if !sort.StringsAreSorted(want) {
		t.Fatalf("%q do not sort in index order", want)
	}
}

// TestOutputKeyOrderSurvivesWideIndices: SortHierarchical recovers
// global part order with sort.Strings(OutputKeys), which silently
// broke past index 9999 when the names grew digits like %04d does
// ("part-10000" < "part-9999" in byte order). The widened encoding
// must keep lexicographic order == numeric order across every width
// transition.
func TestOutputKeyOrderSurvivesWideIndices(t *testing.T) {
	idxs := []int{
		0, 1, 9998, 9999, // legacy 4-digit band
		10000, 10001, 99999, 123456, 99999999, // 8-digit band
		100000000, 100000001, 1 << 40, // 19-digit band
	}
	keys := make([]string, len(idxs))
	for i, idx := range idxs {
		keys[i] = OutputKey("sorted/", idx)
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("output keys do not sort in index order:\n%v", keys)
	}
	// The legacy 4-digit band is byte-for-byte what fmt produced.
	if got, want := keys[3], "sorted/part-9999"; got != want {
		t.Fatalf("legacy band changed: %q, want %q", got, want)
	}
	// Distinct indices must yield distinct keys even across bands.
	seen := map[string]bool{}
	for i, k := range keys {
		if seen[k] {
			t.Fatalf("duplicate key %q for index %d", k, idxs[i])
		}
		seen[k] = true
	}
}

// Merge edge cases: the shapes a real merge can see around run
// exhaustion and degenerate inputs.

func TestMergeRunsNoRuns(t *testing.T) {
	if out := mergeEverywhere(t, nil); len(out) != 0 {
		t.Fatalf("merge of no runs = %q", out)
	}
	if out := mergeEverywhere(t, [][]byte{nil, {}, []byte("\n \n")}); len(out) != 0 {
		t.Fatalf("merge of empty/blank runs = %q", out)
	}
}

func TestMergeRunsSingleRun(t *testing.T) {
	recs := bed.Generate(bed.GenConfig{Records: 100, Seed: 75, Sorted: true})
	run := bed.Marshal(recs)
	if out := mergeEverywhere(t, [][]byte{run}); !bytes.Equal(out, run) {
		t.Fatal("single sorted run should round-trip byte-identically")
	}
}

func TestMergeRunsAllEqualKeys(t *testing.T) {
	// Every record carries the same key; the heap must fall back to
	// the run-index tie-break, so the merge concatenates the runs in
	// index order deterministically.
	line := func(tag string) []byte {
		r := bed.Record{Chrom: "chr3", Start: 50, End: 51, Name: tag,
			Score: 1, Strand: '+', Coverage: 1, MethPct: 10}
		return bed.AppendTSV(nil, r)
	}
	runs := [][]byte{
		append(append([]byte{}, line("a")...), line("b")...),
		append(append([]byte{}, line("c")...), line("d")...),
		line("e"),
	}
	out := mergeEverywhere(t, runs)
	want := bytes.Join([][]byte{runs[0], runs[1], runs[2]}, nil)
	if !bytes.Equal(out, want) {
		t.Fatalf("equal-key merge is not run-index order:\n got %q\nwant %q", out, want)
	}
}

func TestMergeRunsTrailingUnterminatedLine(t *testing.T) {
	a := bed.Record{Chrom: "chr1", Start: 1, End: 2, Name: ".", Score: 1,
		Strand: '+', Coverage: 1, MethPct: 5}
	b := bed.Record{Chrom: "chr1", Start: 9, End: 10, Name: ".", Score: 1,
		Strand: '-', Coverage: 1, MethPct: 6}
	run := bed.AppendTSV(bed.AppendTSV(nil, a), b)
	run = run[:len(run)-1] // strip the final newline
	out := mergeEverywhere(t, [][]byte{run})
	if want := append(append([]byte{}, run...), '\n'); !bytes.Equal(out, want) {
		t.Fatalf("unterminated final line mishandled:\n got %q\nwant %q", out, want)
	}
}

func TestMergeRunsCursorExhaustsMidMerge(t *testing.T) {
	// Run 0 exhausts while runs 1 and 2 still hold records: the heap
	// must drop the dead cursor and keep merging the remainder.
	mk := func(starts ...int64) []byte {
		var out []byte
		for _, s := range starts {
			out = bed.AppendTSV(out, bed.Record{Chrom: "chr2", Start: s, End: s + 1,
				Name: ".", Score: 1, Strand: '+', Coverage: 1, MethPct: 50})
		}
		return out
	}
	runs := [][]byte{mk(10, 11), mk(5, 20, 40), mk(1, 30, 50, 60)}
	out := mergeEverywhere(t, runs)
	want := mk(1, 5, 10, 11, 20, 30, 40, 50, 60)
	if !bytes.Equal(out, want) {
		t.Fatalf("mid-merge exhaustion mishandled:\n got %q\nwant %q", out, want)
	}
}

// legacySortRun is the PR 3 runPart.finish body — stable comparison
// sort over the ref index, then copy-out — kept as the oracle the
// radix path must reproduce byte for byte. It reads b's buffer and
// index and leaves b's index sorted.
func legacySortRun(b *runBuilder) []byte {
	cmp := func(x, y bed.KeyRef) int {
		return compareLineKeys(x.Key, b.buf[x.Idx:], y.Key, b.buf[y.Idx:])
	}
	slices.SortStableFunc(b.refs, cmp)
	dst := make([]byte, 0, len(b.buf))
	for _, ref := range b.refs {
		line := b.buf[ref.Idx:]
		dst = append(dst, line[:bytes.IndexByte(line, '\n')+1]...)
	}
	return dst
}

// builderOf encodes records into a one-run builder's buffer and offset
// index, exactly as runBuilder.addLine lays them out (but without
// pooled scratch, so tests and benchmarks own the memory).
func builderOf(recs []bed.Record) *runBuilder {
	b := &runBuilder{fanOut: 1}
	for _, r := range recs {
		line := bed.AppendTSV(nil, r)
		b.appendLine(bed.KeyOf(r), line[:len(line)-1])
	}
	return b
}

// appendLine appends a line, ended by '\n', and its key to the
// builder's buffer and index, with no parse.
func (b *runBuilder) appendLine(key bed.Key, line []byte) {
	b.refs = append(b.refs, bed.KeyRef{Key: key, Idx: int32(len(b.buf))})
	b.buf = append(append(b.buf, line...), '\n')
}

// adversarialRecords mixes generated records with the shapes that
// stress the radix sort's fallbacks: beyond-table scaffolds sharing
// 8-byte name prefixes, duplicate keys with distinct payloads (where
// only input-order stability keeps bytes identical), and names shorter
// than the packed prefix.
func adversarialRecords(seed int64, n int) []bed.Record {
	recs := bed.Generate(bed.GenConfig{Records: n, Seed: seed, Sorted: false})
	base := bed.Record{Name: ".", Score: 1, Strand: '+', Coverage: 1, MethPct: 50}
	for i := 0; i < n/4; i++ {
		r := base
		switch i % 5 {
		case 0:
			r.Chrom = "chrUn_KI270302v1"
		case 1:
			r.Chrom = "chrUn_KI270303v1" // collides with case 0 in the 8-byte prefix
		case 2:
			r.Chrom = "chrUn_K" // shorter than the packed prefix
		case 3:
			r.Chrom = "chr300" // numeric beyond-table rank, zero prefix
		default:
			r.Chrom = "chr9"
		}
		r.Start = int64(1000 + (i*37)%257) // plenty of duplicate intervals
		r.End = r.Start + 1
		r.MethPct = i % 100 // duplicates differ in payload bytes only
		recs = append(recs, r)
	}
	// Deterministic shuffle so duplicates interleave across the slice.
	for i := len(recs) - 1; i > 0; i-- {
		j := (i*2654435761 + int(seed)) % (i + 1)
		if j < 0 {
			j += i + 1
		}
		recs[i], recs[j] = recs[j], recs[i]
	}
	return recs
}

// TestPropertyFinishMatchesStableSort: the ISSUE 4 differential — the
// radix finish must emit byte-identical runs to the stable comparison
// sort it replaced, on random records, adversarial shared-prefix
// names, and duplicate keys.
func TestPropertyFinishMatchesStableSort(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		recs := adversarialRecords(seed, 2000)
		want := legacySortRun(builderOf(recs))
		got := builderOf(recs).finish()[0]
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: radix finish diverges from stable comparison sort", seed)
		}
	}
}

// TestMergeSplitMatchesRouteAndSort: the merge-split repartitioner —
// the streamed merge routing into a runSplitter, at every chunk size,
// and the mergeSplit oracle — must produce exactly what routing every
// line and stable-sorting each partition produced in PR 3, including
// keys equal to a boundary routing right, empty partitions staying
// nil, and inputs arriving as multiple overlapping runs.
func TestMergeSplitMatchesRouteAndSort(t *testing.T) {
	recs := adversarialRecords(99, 3000)
	const g, k = 3, 5
	bounds := benchBounds(recs, k)
	// Inject exact duplicates of every boundary so the
	// equal-routes-right rule is exercised for real, not just when the
	// sampled boundaries happen to recur in the input.
	invOrder := func(v uint64) int64 { return int64(v ^ 1<<63) }
	for _, bd := range bounds {
		recs = append(recs, bed.Record{
			Chrom: bd.Name, Start: invOrder(bd.Key.Start), End: invOrder(bd.Key.End),
			Name: ".", Score: 1, Strand: '+', Coverage: 1, MethPct: 42,
		})
	}
	lists := make([][]bed.Record, g)
	for i, r := range recs {
		lists[i%g] = append(lists[i%g], r)
	}
	runs := make([][]byte, g)
	for i, rl := range lists {
		bed.Sort(rl)
		runs[i] = bed.Marshal(rl)
	}
	oracleParts, err := mergeSplit(runs, k, bounds)
	if err != nil {
		t.Fatalf("mergeSplit: %v", err)
	}
	splits := map[string][][]byte{"mergeSplit oracle": oracleParts}
	var total int64
	for _, run := range runs {
		total += int64(len(run))
	}
	for _, chunk := range mergeChunks {
		split := newRunSplitter(k, bounds, total)
		if sized, _, err := mergeStreamedRuns(&meter{clock: freeClock{}}, chunkedSources(runs, chunk), split.emit); err != nil || sized {
			t.Fatalf("streamed merge-split (chunk %d): sized=%v err=%v", chunk, sized, err)
		}
		splits[fmt.Sprintf("streamed merge-split (chunk %d)", chunk)] = split.finish()
	}
	// Oracle: route each line by binary search, then stable-sort each
	// partition — the PR 3 repartition body (AddEncoded stored each
	// line's trailing newline inside the ref, so the copy-out already
	// emits terminated lines).
	oracle := make([]runBuilder, k)
	for _, run := range runs {
		if err := forEachLine(run, func(line []byte) error {
			key, err := bed.KeyOfLine(line)
			if err != nil {
				return err
			}
			oracle[partitionIndex(key, chromOf(line), bounds)].appendLine(key, line)
			return nil
		}); err != nil {
			t.Fatalf("oracle routing: %v", err)
		}
	}
	for r := 0; r < k; r++ {
		var want []byte
		if len(oracle[r].refs) > 0 {
			want = legacySortRun(&oracle[r])
		}
		for name, got := range splits {
			if want == nil && got[r] != nil {
				t.Fatalf("%s: partition %d: want nil, got %d bytes", name, r, len(got[r]))
			}
			if !bytes.Equal(got[r], want) {
				t.Fatalf("%s: partition %d diverges from route-and-sort (%d vs %d bytes)",
					name, r, len(got[r]), len(want))
			}
		}
	}
}

// TestMergeRunsTimingOnly merges runs of which some or all are
// timing-only payloads. Whatever the mix, every byte of every run is
// pulled and charged exactly once, in the order the cursors would have
// pulled: the first chunk of each run up to and including the first
// sized one, then the rest of every run in turn.
func TestMergeRunsTimingOnly(t *testing.T) {
	recs := bed.Generate(bed.GenConfig{Records: 40, Seed: 76, Sorted: true})
	real := bed.Marshal(recs)
	const chunk = 300
	chunksOf := func(n int) (out []int64) {
		for ; n > chunk; n -= chunk {
			out = append(out, chunk)
		}
		return append(out, int64(n))
	}
	src := func(pl payload.Payload) runSource { return &payloadSource{pl: pl, chunk: chunk} }
	realChunks := chunksOf(len(real))
	cases := []struct {
		name    string
		srcs    []runSource
		sized   bool
		total   int64
		charges []int64
	}{
		{"sized first run", []runSource{src(payload.Sized(1000)), src(payload.Sized(500))},
			true, 1500, []int64{300, 300, 300, 100, 300, 200}},
		{"empty first run, then a sized one", []runSource{src(payload.RealNoCopy(nil)), src(payload.Sized(700))},
			true, 700, []int64{300, 300, 100}},
		{"real first run, then a sized one", []runSource{src(payload.RealNoCopy(real)), src(payload.Sized(400))},
			true, int64(len(real)) + 400,
			slices.Concat([]int64{realChunks[0], 300}, realChunks[1:], []int64{100})},
		{"empty first run, then a real one", []runSource{src(payload.RealNoCopy(nil)), src(payload.RealNoCopy(real))},
			false, int64(len(real)), realChunks},
	}
	for _, tc := range cases {
		var charges chargeLog
		var out []byte
		var sized bool
		var total int64
		var err error
		inProc(t, func(p *des.Proc) {
			sized, total, err = mergeStreamedRuns(&meter{p: p, clock: &charges, left: math.MaxInt64}, tc.srcs,
				func(_ bed.Key, line []byte) error {
					out = append(append(out, line...), '\n')
					return nil
				})
		})
		if err != nil || sized != tc.sized || total != tc.total {
			t.Errorf("%s: sized %v total %d err %v, want %v %d", tc.name, sized, total, err, tc.sized, tc.total)
		}
		if !slices.Equal([]int64(charges), tc.charges) {
			t.Errorf("%s: chunks charged %v, want %v", tc.name, charges, tc.charges)
		}
		if !tc.sized && !bytes.Equal(out, real) {
			t.Errorf("%s: merged %d bytes, want the real run's %d", tc.name, len(out), len(real))
		}
	}
}

// TestMergeOfSizedRunsBuildsNoCursors holds the timing-only reduce to
// what it needs: a fan-in of 128 sized runs drains by byte count without
// the 128 line cursors (~300 B each) a real merge walks them with. The
// meter is the function attempt's, made once for all it reads.
func TestMergeOfSizedRunsBuildsNoCursors(t *testing.T) {
	if destest.Race {
		t.Skip("the race detector allocates")
	}
	chunk := payload.Sized(1 << 20)
	runs := make([]fixedSource, 128)
	srcs := make([]runSource, len(runs))
	n := -1.0
	inProc(t, func(p *des.Proc) {
		m := &meter{p: p, clock: freeClock{}}
		n = testing.AllocsPerRun(10, func() {
			for i := range runs {
				runs[i] = fixedSource{left: 3, chunk: chunk}
				srcs[i] = &runs[i]
			}
			if sized, total, err := mergeStreamedRuns(m, srcs, nil); !sized || total != 128*3<<20 || err != nil {
				t.Errorf("sized %v total %d err %v", sized, total, err)
			}
		})
	})
	if n != 0 {
		t.Errorf("draining 128 sized runs allocates %.0f times, want 0", n)
	}
}

// inProc runs fn as the one process of a simulation.
func inProc(t *testing.T, fn func(p *des.Proc)) {
	t.Helper()
	sim := des.New(1)
	sim.Spawn("test", fn)
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// TestSizedSliceBuildsNoRuns holds the timing-only map to what it
// needs: a mapper's slice of a sized input, at a fan-out of 128, streams
// and charges its chunks with no runBuilder behind it, as the reduce
// above drains with no cursors. What is left is eight: the stream's two
// (the stream and its bound step), the boxes of the range it cuts and of
// that range's three chunks, and the slice's meter and its drain
// chain's bound step (which replaced the reader's CPU budget and charge
// closure, two as well). Building the partitions up front cost an
// eleventh, the []runPart of a buffer and an index per reducer, which
// has since become one buffer and one index cut at the boundaries; the
// stream's name, built at the open until only OpenStreams built it, a
// tenth; and the stream's producing side, a second object until the
// stream became one, a ninth.
func TestSizedSliceBuildsNoRuns(t *testing.T) {
	if destest.Race {
		t.Skip("the race detector allocates")
	}
	const size = 64 << 20
	tk := sliceTask(128, size)
	tk.off, tk.n = EvenShare(size, 128, 5)
	allocs := -1.0
	inMapper(t, payload.Sized(size), func(ctx *faas.Ctx) {
		allocs = testing.AllocsPerRun(20, func() {
			if parts, err := tk.readSlice(ctx); parts != nil || err != nil {
				t.Errorf("sized slice: %d runs, %v; want none, nil", len(parts), err)
			}
		})
	})
	if allocs != 8 {
		t.Errorf("a sized 128-way slice read allocates %.0f times, want 8", allocs)
	}
}

// TestRealSliceOfBlankLinesWritesEmptyRuns: a real slice that owns no
// line but blank ones builds no partitions either, and still hands its
// writer a full fan-out of empty runs.
func TestRealSliceOfBlankLinesWritesEmptyRuns(t *testing.T) {
	line := bed.AppendTSV(nil, bed.Record{Chrom: "chr1", Start: 5, End: 6, Name: ".", Strand: '+'})
	object := slices.Concat(line, []byte("\n\n \n\t\n\n"), line)
	tk := sliceTask(3, int64(len(object)))
	tk.off, tk.n = int64(len(line)), 6
	inMapper(t, payload.RealNoCopy(object), func(ctx *faas.Ctx) {
		parts, err := tk.readSlice(ctx)
		if err != nil || len(parts) != 3 {
			t.Errorf("blank slice: %d runs, %v; want 3, nil", len(parts), err)
		}
		for r, part := range parts {
			if len(part) != 0 {
				t.Errorf("run %d holds %q, want nothing", r, part)
			}
		}
	})
}

// sliceTask is a map task over the object inMapper stores, fanning out
// to fanOut runs with no boundaries; the caller sets its slice.
func sliceTask(fanOut int, size int64) *task {
	streamBps, sortBps := MapStreamRates(1.6e9)
	return &task{
		wave:     &wave{fanOut: fanOut, streamBps: streamBps, sortBps: sortBps},
		inBucket: "in", inKey: "data", size: size,
	}
}

// inMapper stores in as in/data and runs body inside one invocation.
func inMapper(t *testing.T, in payload.Payload, body func(ctx *faas.Ctx)) {
	t.Helper()
	sim, store, pf := readPinRig(t)
	if err := pf.Register("pin/map", func(ctx *faas.Ctx, _ any) (any, error) {
		body(ctx)
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	sim.Spawn("driver", func(p *des.Proc) {
		c := objectstore.NewClient(store)
		if err := c.CreateBucket(p, "in"); err != nil {
			t.Errorf("bucket: %v", err)
			return
		}
		if err := c.Put(p, "in", "data", in); err != nil {
			t.Errorf("put: %v", err)
			return
		}
		if _, err := pf.Invoke(p, "pin/map", nil, faas.InvokeOptions{}); err != nil {
			t.Errorf("invoke: %v", err)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// fixedSource is a run of left equal chunks, handed out without
// allocating.
type fixedSource struct {
	left  int
	chunk payload.Payload
}

func (s *fixedSource) Next(*des.Proc) (payload.Payload, error) {
	if s.left == 0 {
		return nil, io.EOF
	}
	s.left--
	return s.chunk, nil
}

func (s *fixedSource) Close() {}

// freeClock is a cpuClock that prices everything at nothing.
type freeClock struct{}

func (freeClock) CPUTime(int64, float64) (time.Duration, bool) { return 0, false }

// chargeLog is a cpuClock that records what it is asked to price and
// prices it at nothing.
type chargeLog []int64

func (c *chargeLog) CPUTime(n int64, _ float64) (time.Duration, bool) {
	*c = append(*c, n)
	return 0, false
}
