package shuffle

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/faaspipe/faaspipe/internal/bed"
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

// checkMapRuns builds the runs of raw's non-blank lines (feedSlice
// never hands a mapper a blank one) with a fan-out of 1-16 and
// boundaries drawn from draw, and holds them to the oracle: every line
// ParseLine accepts routed by partitionIndex as bed.AppendTSV writes it,
// each partition stable-sorted by legacySortRun. The runs must be those
// bytes, each with no capacity past its end, and nil where the
// partition is empty; a line addLine refuses must be one ParseLine
// refuses.
func checkMapRuns(t *testing.T, raw []byte, draw uint64) {
	rng := rand.New(rand.NewSource(int64(draw)))
	fanOut := 1 + int(draw%16)
	var lines [][]byte
	var keys []boundary
	for _, line := range bytes.Split(raw, []byte{'\n'}) {
		if bed.IsBlank(line) {
			continue
		}
		lines = append(lines, line)
		if rec, err := bed.ParseLine(line); err == nil {
			keys = append(keys, boundary{Key: bed.KeyOf(rec), Name: rec.Chrom})
		}
	}
	bounds := mapRunBounds(rng, fanOut, keys)

	b := newRunBuilder(fanOut, bounds, len(raw), len(raw)/32)
	oracle := make([]runBuilder, fanOut)
	for i, line := range lines {
		err := b.addLine(line)
		rec, wantErr := bed.ParseLine(line)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("line %d %q: addLine err %v, ParseLine err %v", i, line, err, wantErr)
		}
		if err != nil {
			continue
		}
		tsv := bed.AppendTSV(nil, rec)
		key := bed.KeyOf(rec)
		oracle[partitionIndex(key, rec.Chrom, bounds)].appendLine(key, tsv[:len(tsv)-1])
	}
	runs := b.finish()
	if len(runs) != fanOut {
		t.Fatalf("%d runs, want %d", len(runs), fanOut)
	}
	for r, got := range runs {
		var want []byte
		if len(oracle[r].refs) > 0 {
			want = legacySortRun(&oracle[r])
		}
		switch {
		case want == nil && got != nil:
			t.Fatalf("run %d of %d: %d bytes, want nil", r, fanOut, len(got))
		case !bytes.Equal(got, want):
			t.Fatalf("run %d of %d: %d bytes differ from route-and-sort's %d", r, fanOut, len(got), len(want))
		case cap(got) != len(got):
			t.Fatalf("run %d of %d: capacity %d past its %d bytes", r, fanOut, cap(got), len(got))
		}
	}
}

// FuzzMapRuns differentially fuzzes a mapper's one sort and cut against
// routing every line and sorting each partition: canonical and
// non-canonical lines, blank ones and lines that do not parse,
// prefix-colliding scaffold names, equal keys, input already in order,
// and fan-outs of 1-16 over boundaries on and off the input's keys. Its
// seeds stay under 4 KiB: with seeds of 12 KiB and more the workers
// stalled from the start, as FuzzSortRun's do on its larger ones.
func FuzzMapRuns(f *testing.F) {
	sorted := bed.Generate(bed.GenConfig{Records: 40, Seed: 5})
	bed.Sort(sorted)
	line := bed.AppendTSV(nil, bed.Record{Chrom: "chrUn_KI270302v1", Start: 7, End: 8, Name: ".", Strand: '+'})
	seeds := []struct {
		raw  []byte
		draw uint64
	}{
		{bed.Marshal(adversarialRecords(3, 40)), 7},
		{perturbedGenerate(40, 5), 12},
		{[]byte(nonCanonicalBlock + "\n \t\n" + nonCanonicalBlock), 3},
		{bed.Marshal(sorted), 15},
		{bytes.Repeat(line, 40), 4},
		{[]byte("chr1\t1x\t2\t.\t1\t+\t1\t2\tc\t1\t1\n\n" + strings.Repeat(string(line), 3) + "junk"), 9},
		{nil, 0},
	}
	for _, s := range seeds {
		f.Add(s.raw, s.draw)
	}
	f.Fuzz(checkMapRuns)
}

// TestMapperRunAllocationsFlatInFanOut holds a real slice's build — its
// lines into one buffer and one index, one sort, one cut — to the same
// allocations at every fan-out with the pools warm: the sorted lines'
// buffer and the runs' headers. A buffer and an index for each reducer
// made 3, 10 and 131 at fan-outs 1, 8 and 128.
func TestMapperRunAllocationsFlatInFanOut(t *testing.T) {
	if destest.Race {
		t.Skip("the race detector allocates")
	}
	recs := bed.Generate(bed.GenConfig{Records: 2000, Seed: 78})
	raw := bed.Marshal(recs)
	for _, fanOut := range []int{1, 8, 128} {
		bounds := benchBounds(recs, fanOut)
		n := testing.AllocsPerRun(20, func() {
			b := newRunBuilder(fanOut, bounds, len(raw), len(raw)/32)
			for rest := raw; len(rest) > 0; {
				nl := bytes.IndexByte(rest, '\n')
				if err := b.addLine(rest[:nl]); err != nil {
					t.Fatal(err)
				}
				rest = rest[nl+1:]
			}
			if runs := b.finish(); len(runs) != fanOut {
				t.Fatalf("%d runs, want %d", len(runs), fanOut)
			}
		})
		if n != 2 {
			t.Errorf("a real slice's build at fan-out %d allocates %.0f times, want 2", fanOut, n)
		}
	}
}
