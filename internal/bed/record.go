// Package bed models DNA methylation annotation data in the ENCODE
// bedMethyl format (BED9+2): the input of the METHCOMP pipeline. It
// provides the record type, a parser and writer for the TSV encoding,
// genome-order sorting, and a deterministic synthetic generator that
// stands in for the paper's ENCFF988BSW whole-genome bisulfite sample.
package bed

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// maxInt mirrors strconv.Atoi's overflow cutoff: numeric chromosome
// suffixes past the int range stay unranked, as they always did.
const maxInt = int64(^uint(0) >> 1)

// Record is one methylation call: a genomic interval with read
// coverage and percent methylation, per the ENCODE WGBS standard.
type Record struct {
	// Chrom is the chromosome name, e.g. "chr1".
	Chrom string
	// Start and End delimit the zero-based half-open interval.
	Start int64
	End   int64
	// Name is the feature name; "." throughout ENCODE files.
	Name string
	// Score is min(coverage, 1000) per the bedMethyl convention.
	Score int
	// Strand is '+', '-' or '.'.
	Strand byte
	// Coverage is the number of reads covering the site.
	Coverage int
	// MethPct is the percentage of reads showing methylation (0-100).
	MethPct int
}

// Validate checks the record against the bedMethyl constraints.
func (r Record) Validate() error {
	if r.Chrom == "" {
		return fmt.Errorf("bed: empty chrom")
	}
	if r.Start < 0 || r.End <= r.Start {
		return fmt.Errorf("bed: bad interval [%d, %d)", r.Start, r.End)
	}
	if r.Score < 0 || r.Score > 1000 {
		return fmt.Errorf("bed: score %d out of [0, 1000]", r.Score)
	}
	if r.Strand != '+' && r.Strand != '-' && r.Strand != '.' {
		return fmt.Errorf("bed: bad strand %q", string(r.Strand))
	}
	if r.Coverage < 0 {
		return fmt.Errorf("bed: negative coverage %d", r.Coverage)
	}
	if r.MethPct < 0 || r.MethPct > 100 {
		return fmt.Errorf("bed: methylation %d%% out of [0, 100]", r.MethPct)
	}
	return nil
}

// beyondRank is the rank of names outside the table below; they order
// after everything ranked, lexically among themselves.
const beyondRank = 26

// chromRank orders chromosome names in genome order: chr1..chr22,
// chrX, chrY, chrM, then anything else lexically after.
func chromRank(chrom string) (int, string) {
	s := strings.TrimPrefix(chrom, "chr")
	if n, ok := parseInt(s); ok && n >= 1 && n <= maxInt {
		return int(n), ""
	}
	switch s {
	case "X":
		return 23, ""
	case "Y":
		return 24, ""
	case "M", "MT":
		return 25, ""
	}
	return beyondRank, chrom
}

// Less orders records in genome order: chromosome rank, then start,
// then end. This is the sort the pipeline's shuffle stage computes.
func Less(a, b Record) bool {
	ra, sa := chromRank(a.Chrom)
	rb, sb := chromRank(b.Chrom)
	if ra != rb {
		return ra < rb
	}
	if sa != sb {
		return sa < sb
	}
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.End < b.End
}

// Sort sorts records in place in genome order. Keys are computed once
// per record up front (one chromosome-name parse each), then an MSD
// radix sort over the packed key bytes orders a KeyRef index — no
// comparator runs on the radix path. Ties (fully-equal keys, and
// beyond-table names colliding in the key's 8-byte prefix, which must
// be resolved by full name before start/end exactly as Less resolves
// them) go through CompareKeyName with input order as the final
// tie-break, so Sort is stable.
func Sort(recs []Record) {
	if len(recs) < 2 {
		return
	}
	if len(recs) > 1<<31-1 {
		// KeyRef indexes are int32; a slice this large cannot occur in
		// a per-worker partition, but stay correct if it ever does.
		slices.SortStableFunc(recs, func(a, b Record) int {
			return CompareKeyName(KeyOf(a), a.Chrom, KeyOf(b), b.Chrom)
		})
		return
	}
	refs := make([]KeyRef, len(recs))
	for i, r := range recs {
		refs[i] = KeyRef{Key: KeyOf(r), Idx: int32(i)}
	}
	RadixSort(refs, func(a, b KeyRef) int {
		if c := CompareKeyName(a.Key, recs[a.Idx].Chrom, b.Key, recs[b.Idx].Chrom); c != 0 {
			return c
		}
		return int(a.Idx) - int(b.Idx)
	})
	sorted := make([]Record, len(recs))
	for i, kr := range refs {
		sorted[i] = recs[kr.Idx]
	}
	copy(recs, sorted)
}

// IsSorted reports whether records are in genome order.
func IsSorted(recs []Record) bool {
	return sort.SliceIsSorted(recs, func(i, j int) bool { return Less(recs[i], recs[j]) })
}
