package bed

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func sample() Record {
	return Record{
		Chrom: "chr1", Start: 10468, End: 10469, Name: ".",
		Score: 14, Strand: '+', Coverage: 14, MethPct: 92,
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := sample().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Record)
	}{
		{"empty chrom", func(r *Record) { r.Chrom = "" }},
		{"negative start", func(r *Record) { r.Start = -1 }},
		{"empty interval", func(r *Record) { r.End = r.Start }},
		{"score too high", func(r *Record) { r.Score = 1001 }},
		{"bad strand", func(r *Record) { r.Strand = 'x' }},
		{"negative coverage", func(r *Record) { r.Coverage = -1 }},
		{"meth over 100", func(r *Record) { r.MethPct = 101 }},
	}
	for _, c := range cases {
		r := sample()
		c.mutate(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestGenomeOrder(t *testing.T) {
	ordered := []Record{
		{Chrom: "chr1", Start: 5, End: 6},
		{Chrom: "chr1", Start: 9, End: 10},
		{Chrom: "chr2", Start: 1, End: 2},
		{Chrom: "chr10", Start: 1, End: 2}, // numeric, not lexical
		{Chrom: "chr22", Start: 1, End: 2},
		{Chrom: "chrX", Start: 1, End: 2},
		{Chrom: "chrY", Start: 1, End: 2},
		{Chrom: "chrM", Start: 1, End: 2},
	}
	for i := 0; i+1 < len(ordered); i++ {
		if !Less(ordered[i], ordered[i+1]) {
			t.Errorf("Less(%v, %v) = false", ordered[i], ordered[i+1])
		}
		if Less(ordered[i+1], ordered[i]) {
			t.Errorf("Less(%v, %v) = true", ordered[i+1], ordered[i])
		}
	}
}

func TestSortAndIsSorted(t *testing.T) {
	recs := Generate(GenConfig{Records: 500, Seed: 3, Sorted: false})
	if IsSorted(recs) {
		t.Fatal("shuffled output claims sorted")
	}
	Sort(recs)
	if !IsSorted(recs) {
		t.Fatal("Sort did not produce genome order")
	}
}

func TestSortKeyMatchesLess(t *testing.T) {
	recs := Generate(GenConfig{Records: 300, Seed: 5})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a := recs[rng.Intn(len(recs))]
		b := recs[rng.Intn(len(recs))]
		if a.Start == b.Start && a.Chrom == b.Chrom {
			continue // SortKey ignores End; ties allowed
		}
		if Less(a, b) != (sortKey(a) < sortKey(b)) {
			t.Fatalf("SortKey order mismatch: %v vs %v", a, b)
		}
	}
}

func TestTSVRoundtrip(t *testing.T) {
	recs := Generate(GenConfig{Records: 1000, Seed: 7})
	data := Marshal(recs)
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if len(back) != len(recs) {
		t.Fatalf("roundtrip count = %d, want %d", len(back), len(recs))
	}
	for i := range recs {
		if recs[i] != back[i] {
			t.Fatalf("record %d: %+v != %+v", i, recs[i], back[i])
		}
	}
}

func TestWriteMatchesMarshal(t *testing.T) {
	recs := Generate(GenConfig{Records: 100, Seed: 9})
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), Marshal(recs)) {
		t.Fatal("Write and Marshal disagree")
	}
}

func TestParseSkipsBlankLines(t *testing.T) {
	data := Marshal(Generate(GenConfig{Records: 3, Seed: 1}))
	withBlanks := "\n" + string(data) + "\n\n"
	recs, err := Parse(strings.NewReader(withBlanks))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("parsed %d records, want 3", len(recs))
	}
}

func TestParseErrorsCarryLineNumbers(t *testing.T) {
	good := string(Marshal(Generate(GenConfig{Records: 2, Seed: 1})))
	bad := good + "chr1\tnot-a-number\n"
	_, err := Parse(strings.NewReader(bad))
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want ParseError", err)
	}
	if pe.Line != 3 {
		t.Fatalf("error line = %d, want 3", pe.Line)
	}
}

func TestParseRejectsWrongFieldCount(t *testing.T) {
	_, err := ParseLine([]byte("chr1\t1\t2"))
	if err == nil {
		t.Fatal("3-field line accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(GenConfig{Records: 2000, Seed: 42})
	b := Generate(GenConfig{Records: 2000, Seed: 42})
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs across identical runs", i)
		}
	}
	c := Generate(GenConfig{Records: 2000, Seed: 43})
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGenerateCount(t *testing.T) {
	for _, n := range []int{1, 10, 999, 5000} {
		recs := Generate(GenConfig{Records: n, Seed: 1})
		if len(recs) != n {
			t.Fatalf("Generate(%d) produced %d", n, len(recs))
		}
	}
	if recs := Generate(GenConfig{Records: 0}); recs != nil {
		t.Fatal("Generate(0) != nil")
	}
}

func TestGenerateSortedFlag(t *testing.T) {
	recs := Generate(GenConfig{Records: 3000, Seed: 4, Sorted: true})
	if !IsSorted(recs) {
		t.Fatal("Sorted: true produced unsorted output")
	}
}

func TestGenerateAllValid(t *testing.T) {
	recs := Generate(GenConfig{Records: 5000, Seed: 6})
	for i, r := range recs {
		if err := r.Validate(); err != nil {
			t.Fatalf("record %d invalid: %v (%+v)", i, err, r)
		}
	}
}

func TestGenerateBimodalMethylation(t *testing.T) {
	recs := Generate(GenConfig{Records: 20000, Seed: 8})
	lo, hi, mid := 0, 0, 0
	for _, r := range recs {
		switch {
		case r.MethPct <= 15:
			lo++
		case r.MethPct >= 85:
			hi++
		default:
			mid++
		}
	}
	if lo < len(recs)/10 || hi < len(recs)/4 {
		t.Fatalf("not bimodal: lo=%d hi=%d mid=%d of %d", lo, hi, mid, len(recs))
	}
	if mid > len(recs)/2 {
		t.Fatalf("too many intermediate levels: %d of %d", mid, len(recs))
	}
}

func TestGenerateUsesMultipleChroms(t *testing.T) {
	recs := Generate(GenConfig{Records: 10000, Seed: 2})
	seen := map[string]bool{}
	for _, r := range recs {
		seen[r.Chrom] = true
	}
	if len(seen) < 10 {
		t.Fatalf("only %d chromosomes used", len(seen))
	}
}

func TestPropertyTSVRoundtripArbitrary(t *testing.T) {
	f := func(startSeed uint32, lenSeed uint8, cov uint8, meth uint8, strandBit bool) bool {
		r := Record{
			Chrom:    "chr7",
			Start:    int64(startSeed),
			End:      int64(startSeed) + int64(lenSeed%50) + 1,
			Name:     ".",
			Score:    int(cov),
			Strand:   '+',
			Coverage: int(cov),
			MethPct:  int(meth) % 101,
		}
		if strandBit {
			r.Strand = '-'
		}
		if r.Score > 1000 {
			r.Score = 1000
		}
		line := AppendTSV(nil, r)
		back, err := ParseLine(bytes.TrimSuffix(line, []byte("\n")))
		return err == nil && back == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestCodecAllocatesOnce pins the whole-buffer codec's sizing: Marshal
// reserves enough for generated lines, and Unmarshal sizes its result
// from the line count, so neither regrows however long the input.
func TestCodecAllocatesOnce(t *testing.T) {
	var unmarshalAt10k float64
	for _, n := range []int{10000, 100000} {
		recs := Generate(GenConfig{Records: n, Seed: 12})
		data := Marshal(recs)
		// 20 runs: AllocsPerRun rounds the mean down, which absorbs the
		// runtime's own stray allocations when a GC cycle starts.
		if got := testing.AllocsPerRun(20, func() { Marshal(recs) }); got != 1 {
			t.Errorf("Marshal of %d records: %v allocations, want 1 (%d bytes a record)", n, got, len(data)/n)
		}
		got := testing.AllocsPerRun(20, func() {
			if _, err := Unmarshal(data); err != nil {
				t.Fatal(err)
			}
		})
		if n == 10000 {
			unmarshalAt10k = got
		}
		if got > 2 || got > unmarshalAt10k {
			t.Errorf("Unmarshal of %d records: %v allocations, want at most 2 and no more than at 10k (%v)", n, got, unmarshalAt10k)
		}
	}
}
