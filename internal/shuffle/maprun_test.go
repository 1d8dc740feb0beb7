package shuffle

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des/destest"
)

// mapRunNames are the chromosome names of the boundaries FuzzMapRuns
// draws beside its input's own keys: table names, a numeric rank beyond
// the table, a name shorter than the key's packed prefix and two
// scaffolds that collide in it.
var mapRunNames = []string{"chr1", "chr2", "chrX", "chr300", "chrUn_K", "chrUn_KI270302v1", "chrUn_KI270303v1"}

// mapRunBounds draws fanOut-1 sorted boundaries, repeats allowed, from
// keys (the input's own, so that lines equal to a boundary occur) and
// from keys drawn over mapRunNames that the input need not hold.
func mapRunBounds(rng *rand.Rand, fanOut int, keys []boundary) []boundary {
	cands := slices.Clone(keys)
	for range 8 {
		name := mapRunNames[rng.Intn(len(mapRunNames))]
		start := rng.Int63n(2000)
		r := bed.Record{Chrom: name, Start: start, End: start + 1 + rng.Int63n(3)}
		cands = append(cands, boundary{Key: bed.KeyOf(r), Name: name})
	}
	bounds := make([]boundary, fanOut-1)
	for i := range bounds {
		bounds[i] = cands[rng.Intn(len(cands))]
	}
	slices.SortFunc(bounds, func(a, b boundary) int { return bed.CompareKeyName(a.Key, a.Name, b.Key, b.Name) })
	return bounds
}

// routeAndSort is the oracle of a mapper's runs over lines: every line
// ParseLine accepts routed by partitionIndex as bed.AppendTSV writes it,
// each partition stable-sorted by legacySortRun, nil where it is empty.
// It fails where ParseLine fails on a line.
func routeAndSort(lines [][]byte, fanOut int, bounds []boundary) ([][]byte, error) {
	oracle := make([]lineIndex, fanOut)
	for _, line := range lines {
		rec, err := bed.ParseLine(line)
		if err != nil {
			return nil, err
		}
		tsv := bed.AppendTSV(nil, rec)
		key := bed.KeyOf(rec)
		oracle[partitionIndex(key, rec.Chrom, bounds)].appendLine(key, tsv[:len(tsv)-1])
	}
	runs := make([][]byte, fanOut)
	for r := range oracle {
		if len(oracle[r].refs) > 0 {
			runs[r] = legacySortRun(&oracle[r])
		}
	}
	return runs, nil
}

// checkRuns holds runs to want: the same bytes, each run with no
// capacity past its end, and nil where want is.
func checkRuns(t *testing.T, runs, want [][]byte) {
	t.Helper()
	if len(runs) != len(want) {
		t.Fatalf("%d runs, want %d", len(runs), len(want))
	}
	for r, got := range runs {
		switch {
		case want[r] == nil && got != nil:
			t.Fatalf("run %d of %d: %d bytes, want nil", r, len(want), len(got))
		case !bytes.Equal(got, want[r]):
			t.Fatalf("run %d of %d: %d bytes differ from route-and-sort's %d", r, len(want), len(got), len(want[r]))
		case cap(got) != len(got):
			t.Fatalf("run %d of %d: capacity %d past its %d bytes", r, len(want), cap(got), len(got))
		}
	}
}

// lineKeys returns the keys of raw's lines that parse.
func lineKeys(raw []byte) []boundary {
	var keys []boundary
	for _, line := range bytes.Split(raw, []byte{'\n'}) {
		if rec, err := bed.ParseLine(line); err == nil {
			keys = append(keys, boundary{Key: bed.KeyOf(rec), Name: rec.Chrom})
		}
	}
	return keys
}

// checkMapRuns builds the runs of raw's non-blank lines (feedSlice never
// hands a mapper a blank one), indexed over raw as their span, with a
// fan-out of 1-16 and boundaries drawn from draw, and holds them to
// routeAndSort; a line addLine refuses must be one ParseLine refuses.
func checkMapRuns(t *testing.T, raw []byte, draw uint64) {
	rng := rand.New(rand.NewSource(int64(draw)))
	fanOut := 1 + int(draw%16)
	bounds := mapRunBounds(rng, fanOut, lineKeys(raw))

	b, err := newRunBuilder(fanOut, bounds, int64(len(raw)), len(raw)/32)
	if err != nil {
		t.Fatal(err)
	}
	var parsed [][]byte
	if err := forEachLine(raw, func(line []byte, off int, nl bool) error {
		err := b.addLine(line, off, nl)
		if _, wantErr := bed.ParseLine(line); (err == nil) != (wantErr == nil) {
			t.Fatalf("line at %d %q: addLine err %v, ParseLine err %v", off, line, err, wantErr)
		}
		if err == nil {
			parsed = append(parsed, line)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want, err := routeAndSort(parsed, fanOut, bounds)
	if err != nil {
		t.Fatal(err)
	}
	checkRuns(t, b.finish(raw), want)
}

// FuzzMapRuns differentially fuzzes a mapper's one sort and cut against
// routing every line and sorting each partition: canonical and
// non-canonical lines, blank ones and lines that do not parse,
// prefix-colliding scaffold names, equal keys, input already in order,
// and fan-outs of 1-16 over boundaries on and off the input's keys. Its
// seeds stay under 4 KiB: with seeds of 12 KiB and more the workers
// stalled from the start, as FuzzSortRun's do on its larger ones.
func FuzzMapRuns(f *testing.F) {
	for _, s := range mapRunSeeds() {
		f.Add(s.raw, s.draw)
	}
	f.Fuzz(checkMapRuns)
}

// mapRunSeed is an input of the map fuzzers and a draw of the geometry.
type mapRunSeed struct {
	raw  []byte
	draw uint64
}

// mapRunSeeds are the map fuzzers' seeds, each under 4 KiB: canonical
// and non-canonical lines, blank ones and one that does not parse,
// scaffolds, sorted input, equal keys with different bytes, CRLF lines
// and an unterminated last line.
func mapRunSeeds() []mapRunSeed {
	sorted := bed.Generate(bed.GenConfig{Records: 40, Seed: 5})
	bed.Sort(sorted)
	line := bed.AppendTSV(nil, bed.Record{Chrom: "chrUn_KI270302v1", Start: 7, End: 8, Name: ".", Strand: '+'})
	equal := equalKeysMixed()
	crlf := bytes.ReplaceAll(bed.Marshal(sorted[:12]), []byte{'\n'}, []byte("\r\n"))
	return []mapRunSeed{
		{bed.Marshal(adversarialRecords(3, 40)), 7},
		{perturbedGenerate(40, 5), 12},
		{[]byte(nonCanonicalBlock + "\n \t\n" + nonCanonicalBlock), 3},
		{bed.Marshal(sorted), 15},
		{bytes.Repeat(line, 40), 4},
		{[]byte("chr1\t1x\t2\t.\t1\t+\t1\t2\tc\t1\t1\n\n" + strings.Repeat(string(line), 3) + "junk"), 9},
		{nil, 0},
		{equal, 5},
		{crlf, 2<<8 | 6},
		{append(slices.Concat(equal, line), line[:len(line)-1]...), 3<<8 | 2},
		{[]byte(strings.TrimSuffix(nonCanonicalBlock, "\n")), 4<<8 | 10},
	}
}

// checkReadSlice reads raw as a mapper does: a task over a slice of it,
// drawn from draw, indexes the lines it owns through a lineReader over
// chunks cut at cuts (each byte a chunk length, cycled), each chunk a
// view of raw or, by a bit of draw, a copy of its own, so that the span
// the runs are copied from is one view of raw or Concat's copy of the
// chunks. The runs must be routeAndSort of the lines that start in the
// slice; the read must fail where one of them does not parse.
func checkReadSlice(t *testing.T, raw []byte, draw uint64, cuts []byte) {
	rng := rand.New(rand.NewSource(int64(draw)))
	fanOut := 1 + int(draw%16)
	bounds := mapRunBounds(rng, fanOut, lineKeys(raw))
	size := int64(len(raw))
	off := min(int64(draw>>8&63), size)
	n := size - off
	if draw>>15&1 == 1 {
		n = min(n, int64(draw>>16%uint64(len(raw)+1)))
	}
	tk := &task{wave: &wave{fanOut: fanOut}, off: off, n: n, size: size, bounds: bounds}
	readOff, readLen, _ := tk.span()
	readEnd := readOff + readLen

	// The slice's own lines start in [off, off+n). A read of one line
	// with no start in the slice finds none, and one the overscan cuts
	// short is an error.
	var own [][]byte
	noStart := off > 0 && bytes.IndexByte(raw[readOff:readEnd], '\n') < 0
	cutShort := false
	for at := int64(0); at < size; {
		line := raw[at:]
		end := size
		if i := bytes.IndexByte(line, '\n'); i >= 0 {
			line, end = line[:i], at+int64(i)
		}
		if at >= off && at < off+n {
			cutShort = cutShort || end >= readEnd && readEnd < size
			if !bed.IsBlank(line) {
				own = append(own, line)
			}
		}
		at += int64(len(line)) + 1
	}
	want, wantErr := routeAndSort(own, fanOut, bounds)

	var src chunkList
	copies := draw>>14&1 == 1
	for pos, i := readOff, 0; pos < readEnd; i++ {
		c := readEnd - pos // no cuts, or too many empty chunks: the rest in one
		if len(cuts) > 0 && i < 4*len(raw)+len(cuts) {
			c = min(int64(cuts[i%len(cuts)]), c)
		}
		chunk := raw[pos : pos+c]
		if copies {
			chunk = slices.Clone(chunk)
		}
		src = append(src, payload.RealNoCopy(chunk))
		pos += c
	}
	r := &lineReader{src: &src, m: &meter{clock: freeClock{}}, pos: readOff, keep: len(src)}
	b, err := tk.indexSlice(r)
	switch {
	case noStart || cutShort || wantErr != nil:
		if err == nil {
			t.Fatalf("slice [%d, +%d) read, want an error (no line start %v, cut short %v, parse %v)",
				off, n, noStart, cutShort, wantErr)
		}
		return
	case err != nil:
		t.Fatalf("slice [%d, +%d): %v", off, n, err)
	case b.fanOut == 0:
		if len(own) > 0 {
			t.Fatalf("slice [%d, +%d): no builder for %d lines", off, n, len(own))
		}
		return
	}
	checkRuns(t, b.finish(r.span()), want)
}

// FuzzReadSlice differentially fuzzes the mapper's read path — a task's
// indexSlice over a lineReader, the runs copied from the chunks it kept
// — against routeAndSort of the lines the slice owns, over FuzzMapRuns'
// inputs at fuzzed slices and chunkings, the chunks views of one array
// or copies of their own.
func FuzzReadSlice(f *testing.F) {
	for i, s := range mapRunSeeds() {
		f.Add(s.raw, s.draw|uint64(i%2)<<14, []byte{byte(1 + 17*i)})
		f.Add(s.raw, s.draw|uint64(1-i%2)<<14|1<<15|uint64(40+31*i)<<16|uint64(i)<<8, []byte{3, 0, 61})
	}
	f.Fuzz(checkReadSlice)
}

// TestMapperRunAllocationsFlatInFanOut holds a real slice's build — its
// lines indexed where they were read, one sort, one copy and cut — to
// the same allocations at every fan-out with the pool warm: the runs'
// buffer and their headers. A buffer and an index for each reducer made
// 3, 10 and 131 at fan-outs 1, 8 and 128.
func TestMapperRunAllocationsFlatInFanOut(t *testing.T) {
	if destest.Race {
		t.Skip("the race detector allocates")
	}
	recs := bed.Generate(bed.GenConfig{Records: 2000, Seed: 78})
	raw := bed.Marshal(recs)
	for _, fanOut := range []int{1, 8, 128} {
		bounds := benchBounds(recs, fanOut)
		n := testing.AllocsPerRun(20, func() {
			b, err := newRunBuilder(fanOut, bounds, int64(len(raw)), len(raw)/32)
			if err != nil {
				t.Fatal(err)
			}
			for off := 0; off < len(raw); {
				nl := bytes.IndexByte(raw[off:], '\n')
				if err := b.addLine(raw[off:off+nl], off, true); err != nil {
					t.Fatal(err)
				}
				off += nl + 1
			}
			if runs := b.finish(raw); len(runs) != fanOut {
				t.Fatalf("%d runs, want %d", len(runs), fanOut)
			}
		})
		if n != 2 {
			t.Errorf("a real slice's build at fan-out %d allocates %.0f times, want 2", fanOut, n)
		}
	}
}
