package bed

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// sortKey returns a byte string whose lexicographic order matches
// genome order. It is the legacy string key the binary Key replaced in
// the shuffle's data plane (an fmt.Sprintf per record, and it ignores
// End); it is kept as the reference ordering the Key property tests
// compare against.
func sortKey(r Record) string {
	rank, extra := chromRank(r.Chrom)
	return fmt.Sprintf("%02d%s:%012d", rank, extra, r.Start)
}

// TestCompareKeyMatchesSortKeyOrder: on generated records, the binary
// key orders exactly like the legacy sortKey string it replaced.
// sortKey ignores End, so when two sortKeys tie the binary key is
// allowed (required, in fact) to refine the tie by End.
func TestCompareKeyMatchesSortKeyOrder(t *testing.T) {
	recs := Generate(GenConfig{Records: 2000, Seed: 21})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		a := recs[rng.Intn(len(recs))]
		b := recs[rng.Intn(len(recs))]
		ka, kb := KeyOf(a), KeyOf(b)
		sa, sb := sortKey(a), sortKey(b)
		switch {
		case sa < sb:
			if CompareKey(ka, kb) >= 0 {
				t.Fatalf("SortKey %q < %q but CompareKey = %d (%+v vs %+v)",
					sa, sb, CompareKey(ka, kb), a, b)
			}
		case sa > sb:
			if CompareKey(ka, kb) <= 0 {
				t.Fatalf("SortKey %q > %q but CompareKey = %d", sa, sb, CompareKey(ka, kb))
			}
		default: // SortKeys tie: same chrom+start, key refines by End
			wantSign := 0
			if a.End < b.End {
				wantSign = -1
			} else if a.End > b.End {
				wantSign = 1
			}
			if got := CompareKey(ka, kb); got != wantSign {
				t.Fatalf("tied SortKeys, End %d vs %d: CompareKey = %d, want %d",
					a.End, b.End, got, wantSign)
			}
		}
	}
}

// TestCompareKeyMatchesLess: CompareKey < 0 iff Less, on generated
// records.
func TestCompareKeyMatchesLess(t *testing.T) {
	recs := Generate(GenConfig{Records: 2000, Seed: 22})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		a := recs[rng.Intn(len(recs))]
		b := recs[rng.Intn(len(recs))]
		if Less(a, b) != (CompareKey(KeyOf(a), KeyOf(b)) < 0) {
			t.Fatalf("Less/CompareKey disagree: %+v vs %+v", a, b)
		}
	}
}

// TestKeySortedMatchesLessSorted: sorting by key yields a Less-sorted
// permutation on every chromosome the ranking table knows.
func TestKeySortedMatchesLessSorted(t *testing.T) {
	chroms := []string{"chr1", "chr2", "chr9", "chr10", "chr21", "chr22", "chrX", "chrY", "chrM", "chrMT", "chrUn_A", "chrZZ"}
	rng := rand.New(rand.NewSource(4))
	recs := make([]Record, 3000)
	for i := range recs {
		start := int64(rng.Intn(1 << 20))
		recs[i] = Record{
			Chrom: chroms[rng.Intn(len(chroms))],
			Start: start,
			End:   start + 1 + int64(rng.Intn(3)),
		}
	}
	keyed := make([]Record, len(recs))
	copy(keyed, recs)
	slices.SortFunc(keyed, func(a, b Record) int {
		return CompareKey(KeyOf(a), KeyOf(b))
	})
	if !IsSorted(keyed) {
		t.Fatal("key-sorted records are not in genome order")
	}
}

// TestKeyBeyondTableChroms: names outside the ranking table order
// lexically after everything ranked, matching Less, as long as they
// differ within the 8-byte prefix the fixed-width key can hold.
func TestKeyBeyondTableChroms(t *testing.T) {
	ordered := []Record{
		{Chrom: "chrM", Start: 9e9, End: 9e9 + 1},
		{Chrom: "ab", Start: 5, End: 6},
		{Chrom: "abc", Start: 1, End: 2}, // strict-prefix name sorts first
		{Chrom: "chr1_alt", Start: 1, End: 2},
		{Chrom: "chrUn_A", Start: 7, End: 8},
		{Chrom: "chrZZ", Start: 0, End: 1},
	}
	for i := 0; i+1 < len(ordered); i++ {
		a, b := ordered[i], ordered[i+1]
		if !Less(a, b) {
			t.Fatalf("fixture not Less-ordered at %d", i)
		}
		if CompareKey(KeyOf(a), KeyOf(b)) >= 0 {
			t.Errorf("CompareKey(%q, %q) >= 0, want < 0", a.Chrom, b.Chrom)
		}
	}
}

// TestSortBreaksPrefixTiesOnFullName: two beyond-table names sharing
// an 8-byte prefix tie in the key's (Rank, Prefix) words; Sort must
// still order them like Less via the full-name comparison — crucially
// BEFORE start/end, not only when the whole key ties. hg38's
// chrUn_*/_alt scaffolds all collide within 8 bytes, so a start-only
// tie-break would interleave scaffolds.
func TestSortBreaksPrefixTiesOnFullName(t *testing.T) {
	a := Record{Chrom: "chrUn_XY270752", Start: 5, End: 6}
	b := Record{Chrom: "chrUn_XY000195", Start: 5, End: 6}
	if CompareKey(KeyOf(a), KeyOf(b)) != 0 {
		t.Fatal("fixture names no longer tie in the key prefix")
	}
	recs := []Record{a, b}
	Sort(recs)
	if !sort.SliceIsSorted(recs, func(i, j int) bool { return Less(recs[i], recs[j]) }) {
		t.Fatalf("Sort did not break the prefix tie: %q before %q", recs[0].Chrom, recs[1].Chrom)
	}
	if strings.Compare(recs[0].Chrom, recs[1].Chrom) >= 0 {
		t.Fatalf("tie not broken lexically: %q, %q", recs[0].Chrom, recs[1].Chrom)
	}

	// The start-differs case: the lexically-earlier scaffold's record
	// has the LARGER start, so a comparison that consults start before
	// the full name would invert genome order.
	hi := Record{Chrom: "chrUn_KI270302v1", Start: 5000, End: 5001}
	lo := Record{Chrom: "chrUn_KI270303v1", Start: 10, End: 11}
	if KeyOf(hi).Rank != KeyOf(lo).Rank || KeyOf(hi).Prefix != KeyOf(lo).Prefix {
		t.Fatal("scaffold fixtures no longer collide in the key prefix")
	}
	if !Less(hi, lo) {
		t.Fatal("fixture invariant: all of 302v1 precedes 303v1 in genome order")
	}
	if CompareKeyName(KeyOf(hi), hi.Chrom, KeyOf(lo), lo.Chrom) >= 0 {
		t.Fatal("CompareKeyName consulted start before the full scaffold name")
	}
	recs = []Record{lo, hi}
	Sort(recs)
	if !IsSorted(recs) {
		t.Fatalf("Sort interleaved colliding scaffolds: %q@%d before %q@%d",
			recs[0].Chrom, recs[0].Start, recs[1].Chrom, recs[1].Start)
	}
}

// TestKeyOfLineMatchesKeyOf: the three-column fast path computes the
// same key the full parse does.
func TestKeyOfLineMatchesKeyOf(t *testing.T) {
	recs := Generate(GenConfig{Records: 500, Seed: 23})
	var line []byte
	for _, r := range recs {
		line = AppendTSV(line[:0], r)
		key, err := KeyOfLine(line[:len(line)-1])
		if err != nil {
			t.Fatalf("KeyOfLine: %v", err)
		}
		if key != KeyOf(r) {
			t.Fatalf("KeyOfLine != KeyOf for %+v", r)
		}
	}
	for _, bad := range []string{"", "chr1", "chr1\t5", "chr1\tx\t6", "chr1\t5\tx"} {
		if _, err := KeyOfLine([]byte(bad)); err == nil {
			t.Errorf("KeyOfLine(%q) accepted", bad)
		}
	}
}

// TestKeyLargeNumericRanks: numeric ranks are carried at full width —
// chr300 must not alias chr44 (300 mod 256) or any other rank, and
// numeric order must hold across the whole range, matching Less.
func TestKeyLargeNumericRanks(t *testing.T) {
	ordered := []Record{
		{Chrom: "chr22", Start: 9e6, End: 9e6 + 1},
		{Chrom: "chrM", Start: 5, End: 6},
		{Chrom: "chr44", Start: 10, End: 11},
		{Chrom: "chr255", Start: 10, End: 11},
		{Chrom: "chr256", Start: 10, End: 11},
		{Chrom: "chr300", Start: 5, End: 6},
		{Chrom: "chr9000000000", Start: 1, End: 2},
	}
	for i := 0; i+1 < len(ordered); i++ {
		a, b := ordered[i], ordered[i+1]
		if !Less(a, b) {
			t.Fatalf("fixture not Less-ordered at %d (%q, %q)", i, a.Chrom, b.Chrom)
		}
		if CompareKey(KeyOf(a), KeyOf(b)) >= 0 {
			t.Errorf("CompareKey(%q, %q) >= 0, want < 0", a.Chrom, b.Chrom)
		}
		if CompareKeyName(KeyOf(a), a.Chrom, KeyOf(b), b.Chrom) >= 0 {
			t.Errorf("CompareKeyName(%q, %q) >= 0, want < 0", a.Chrom, b.Chrom)
		}
	}
	recs := []Record{ordered[5], ordered[2]} // chr300 then chr44
	Sort(recs)
	if !IsSorted(recs) {
		t.Fatalf("Sort aliased large numeric ranks: %q before %q", recs[0].Chrom, recs[1].Chrom)
	}
}

// TestKeyRank26Numeric: "chr26" is a ranked numeric chromosome that
// happens to share beyond-table names' rank; Less tie-breaks it with
// an empty extra (before every named rank-26 chromosome, never by
// name), and the key must agree — NamePacked is false for it, so
// "chr026" and "chr26" stay the same chromosome ordered by start.
func TestKeyRank26Numeric(t *testing.T) {
	if KeyOf(Record{Chrom: "chr26"}).NamePacked() {
		t.Fatal("numeric chr26 claims a packed name")
	}
	a := Record{Chrom: "chr026", Start: 100, End: 101}
	b := Record{Chrom: "chr26", Start: 5, End: 6}
	if Less(a, b) != (CompareKeyName(KeyOf(a), a.Chrom, KeyOf(b), b.Chrom) < 0) {
		t.Fatal("chr026/chr26 alias ordering diverges from Less")
	}
	named := Record{Chrom: "chrScaffold", Start: 0, End: 1}
	if !Less(b, named) || CompareKeyName(KeyOf(b), b.Chrom, KeyOf(named), named.Chrom) >= 0 {
		t.Fatal("numeric chr26 must order before every beyond-table name")
	}
}

// TestKeyNegativeCoordinates: the sign-flip encoding keeps signed
// order even for (invalid but representable) negative coordinates.
func TestKeyNegativeCoordinates(t *testing.T) {
	a := Record{Chrom: "chr1", Start: -5, End: 0}
	b := Record{Chrom: "chr1", Start: 3, End: 4}
	if CompareKey(KeyOf(a), KeyOf(b)) >= 0 {
		t.Fatal("negative start did not order before positive")
	}
}

// TestSortMatchesLegacy: the keyed Sort produces genome order and
// preserves the multiset, agreeing with a reference sort.Slice over
// Less.
func TestSortMatchesLegacy(t *testing.T) {
	recs := Generate(GenConfig{Records: 4000, Seed: 24, Sorted: false})
	legacy := make([]Record, len(recs))
	copy(legacy, recs)
	sort.SliceStable(legacy, func(i, j int) bool { return Less(legacy[i], legacy[j]) })
	Sort(recs)
	if !IsSorted(recs) {
		t.Fatal("Sort output not in genome order")
	}
	for i := range recs {
		// Generated records have unique (chrom, start, end), so the two
		// sorts must agree record-for-record.
		if recs[i] != legacy[i] {
			t.Fatalf("record %d: keyed sort %+v != legacy sort %+v", i, recs[i], legacy[i])
		}
	}
}
