package bed

import (
	"fmt"
	"slices"
	"testing"
)

// refsOf builds the KeyRef view of records, Idx = input position.
func refsOf(recs []Record) []KeyRef {
	refs := make([]KeyRef, len(recs))
	for i, r := range recs {
		refs[i] = KeyRef{Key: KeyOf(r), Idx: int32(i)}
	}
	return refs
}

// radixCmp is the total order the shuffle hands RadixSort: exact
// genome order via CompareKeyName, input order as the final tie-break.
func radixCmp(recs []Record) func(a, b KeyRef) int {
	return func(a, b KeyRef) int {
		if c := CompareKeyName(a.Key, recs[a.Idx].Chrom, b.Key, recs[b.Idx].Chrom); c != 0 {
			return c
		}
		return int(a.Idx) - int(b.Idx)
	}
}

// stableOrder is the reference: a stable comparison sort over the
// KeyRef view WITHOUT the index tie-break — what
// slices.SortStableFunc(compareLineKeys) computed in the shuffle
// before the radix sort replaced it.
func stableOrder(recs []Record) []KeyRef {
	refs := refsOf(recs)
	slices.SortStableFunc(refs, func(a, b KeyRef) int {
		return CompareKeyName(a.Key, recs[a.Idx].Chrom, b.Key, recs[b.Idx].Chrom)
	})
	return refs
}

func checkRadixMatchesStable(t *testing.T, recs []Record, label string) {
	t.Helper()
	want := stableOrder(recs)
	got := refsOf(recs)
	RadixSort(got, radixCmp(recs))
	if len(got) != len(want) {
		t.Fatalf("%s: length changed: %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: position %d: radix picked record %d, stable sort picked %d",
				label, i, got[i].Idx, want[i].Idx)
		}
	}
}

func TestRadixSortMatchesStableSortRandom(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		for _, n := range []int{0, 1, 2, radixCutoff, radixCutoff + 1, 500, 5000} {
			recs := Generate(GenConfig{Records: n, Seed: seed, Sorted: false})
			checkRadixMatchesStable(t, recs, fmt.Sprintf("seed=%d n=%d", seed, n))
		}
	}
}

// TestRadixSortAdversarialNames: beyond-table scaffolds that collide
// in the packed 8-byte prefix must resolve by full name before
// start/end — the one place radix digits are not allowed to decide —
// plus short names, equal-rank spellings, and numeric beyond-table
// ranks.
func TestRadixSortAdversarialNames(t *testing.T) {
	names := []string{
		"chrUn_KI270302v1", "chrUn_KI270303v1", "chrUn_KI270304v1",
		"chrUn_KI27", "chrUn_K", "chrUn_L",
		"chr7", "chr07", // same rank, different spelling: never name-compared
		"chr300", "chr301", // numeric beyond-table ranks, zero prefix
		"chrX", "chrM", "chrMT",
	}
	var recs []Record
	for i := 0; i < 600; i++ {
		recs = append(recs, Record{
			Chrom: names[i%len(names)],
			// Interleave so name order and start order disagree, with
			// plenty of exact duplicates.
			Start: int64(100 + (i*13)%29),
			End:   int64(101 + (i*13)%29),
			Name:  ".", Score: 1, Strand: '+', Coverage: 1, MethPct: i % 100,
		})
	}
	for i := len(recs) - 1; i > 0; i-- {
		j := (i * 7919) % (i + 1)
		recs[i], recs[j] = recs[j], recs[i]
	}
	checkRadixMatchesStable(t, recs, "adversarial names")
}

// TestRadixSortDuplicateKeysStable: fully-equal keys must come out in
// input order (the stable-sort bytes the golden tests pin), even
// though the American-flag permutation itself is unstable.
func TestRadixSortDuplicateKeysStable(t *testing.T) {
	var recs []Record
	for i := 0; i < 3000; i++ {
		recs = append(recs, Record{
			Chrom: "chr5", Start: int64(10 + i%3), End: int64(11 + i%3),
			Name: ".", Score: 1, Strand: '+', Coverage: 1,
			MethPct: i % 100, // payload differs, key does not
		})
	}
	got := refsOf(recs)
	RadixSort(got, radixCmp(recs))
	var prev KeyRef
	for i, kr := range got {
		if i > 0 && CompareKey(prev.Key, kr.Key) == 0 && prev.Idx >= kr.Idx {
			t.Fatalf("equal keys out of input order at %d: %d then %d", i, prev.Idx, kr.Idx)
		}
		prev = kr
	}
	checkRadixMatchesStable(t, recs, "duplicate keys")
}

func TestKeyDigitRoundTrips(t *testing.T) {
	k := Key{Rank: 0x0102030405060708, Prefix: 0x1112131415161718,
		Start: 0x2122232425262728, End: 0x3132333435363738}
	for i := 0; i < KeyBytes; i++ {
		want := byte((i>>3)<<4 | (i & 7) + 1) // word index in the high nibble, byte position+1 in the low
		if got := k.Digit(i); got != want {
			t.Fatalf("Digit(%d) = %#x, want %#x", i, got, want)
		}
	}
	// Digit order must agree with CompareKey: the first differing digit
	// decides with its byte order.
	a := Key{Rank: 26, Prefix: 0x6161000000000000, Start: 5}
	b := Key{Rank: 26, Prefix: 0x6162000000000000, Start: 1}
	if CompareKey(a, b) >= 0 {
		t.Fatal("fixture keys not ordered")
	}
	for i := 0; i < KeyBytes; i++ {
		da, db := a.Digit(i), b.Digit(i)
		if da != db {
			if da > db {
				t.Fatalf("first differing digit %d disagrees with CompareKey", i)
			}
			break
		}
	}
}

// FuzzRadixSortDifferential drives RadixSort against the stable
// comparison sort on records derived from arbitrary bytes: fuzzed
// chromosome names (shared prefixes included by construction) and
// fuzzed coordinates.
func FuzzRadixSortDifferential(f *testing.F) {
	f.Add([]byte("chrUn_KI270302v1\x00chrUn_KI270303v1\x01\x02"), int64(3))
	f.Add([]byte("chr1chr2chrXchrM"), int64(99))
	f.Add([]byte{0, 1, 2, 3, 4, 250, 251, 252}, int64(7))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if len(data) == 0 || len(data) > 4096 {
			return
		}
		// Derive records: each byte picks a name from a pool that mixes
		// ranked chromosomes with prefix-colliding scaffolds, and a
		// small coordinate so duplicates are common.
		pool := []string{
			"chr1", "chr2", "chr22", "chrX", "chrY", "chrM",
			"chrUn_KI270302v1", "chrUn_KI270303v1", "chrUn_KI270302v2",
			"chrUn_K", "chr300",
		}
		// Fold a few fuzzed names into the pool so the corpus can
		// invent its own collisions (tabs/newlines are fine: these
		// records are never serialized here).
		for i := 0; i+4 <= len(data) && i < 12; i += 4 {
			name := "chr" + string(data[i:i+4])
			pool = append(pool, name)
		}
		var recs []Record
		for i, by := range data {
			recs = append(recs, Record{
				Chrom: pool[int(by)%len(pool)],
				Start: int64(int(by)%17 + i%3 + int(seed%5)),
				End:   int64(int(by)%17 + i%3 + int(seed%5) + 1),
				Name:  ".", Score: 1, Strand: '+', Coverage: 1, MethPct: i % 100,
			})
		}
		checkRadixMatchesStable(t, recs, "fuzz")
	})
}

// TestInsertionSortConsultsCmpOnlyOnTies: a small bucket is ordered by
// the key words alone; cmp is called only on a full-key tie or a
// (Rank, Prefix) tie between NamePacked keys, and the order is still
// the stable sort's.
func TestInsertionSortConsultsCmpOnlyOnTies(t *testing.T) {
	chroms := []string{"chr1", "chr2", "chr10", "chr22", "chrX", "chrY", "chrM", "chr300", "chr07"}
	rec := func(chrom string, start, end int64) Record {
		return Record{Chrom: chrom, Start: start, End: end, Name: ".", Score: 1, Strand: '+', Coverage: 1}
	}
	for _, tc := range []struct {
		name  string
		recs  func() []Record
		calls bool
	}{
		{"distinct ranked keys", func() []Record {
			// Starts repeat on a chromosome, so End decides there.
			var recs []Record
			for i := 0; i < radixCutoff; i++ {
				start := int64(100 + (i*7)%3)
				recs = append(recs, rec(chroms[(i*5)%len(chroms)], start, start+int64(radixCutoff-i)))
			}
			return recs
		}, false},
		{"scaffolds sharing a prefix", func() []Record {
			var recs []Record
			for i := 0; i < 12; i++ {
				recs = append(recs, rec([]string{"chrUn_KI270302v1", "chrUn_KI270303v1", "chr5"}[i%3], int64(20-i), int64(21-i)))
			}
			return recs
		}, true},
		{"equal keys", func() []Record {
			var recs []Record
			for i := 0; i < 8; i++ {
				recs = append(recs, rec("chr5", int64(i%2), int64(i%2+1)))
			}
			return recs
		}, true},
	} {
		recs := tc.recs()
		if len(recs) > radixCutoff {
			t.Fatalf("%s: %d records, more than one small bucket", tc.name, len(recs))
		}
		calls := 0
		cmp := radixCmp(recs)
		got := refsOf(recs)
		insertionSort(got, func(a, b KeyRef) int { calls++; return cmp(a, b) })
		if (calls > 0) != tc.calls {
			t.Errorf("%s: cmp called %d times", tc.name, calls)
		}
		if want := stableOrder(recs); !slices.Equal(got, want) {
			t.Errorf("%s: insertionSort order differs from the stable sort's", tc.name)
		}
	}
}
