package bed

import (
	"math/bits"
	"slices"
)

// The shuffle's per-partition sort: an in-place MSD radix sort
// (American-flag style) over the packed Key bytes. The Key was built
// to be a fixed-width, order-preserving word sequence, which makes it
// a textbook radix key — no comparator runs on the radix path at all.
// Comparison falls back in exactly three places: buckets at or below
// the insertion-sort cutoff (which compare key words inline and call
// the comparator only where the next two cases arise), buckets of
// beyond-table names whose full 8-byte prefixes collide (where the
// complete name must decide before start/end, which key digits cannot
// express), and buckets of fully-equal keys (where only the caller's
// tie-break orders).

// KeyRef pairs a Key with the caller's handle on its element: Idx is an
// index (a record's in Sort) or a byte offset (a line's in a shuffle
// partition), either of which orders by input position. RadixSort
// permutes KeyRefs; the caller reads its elements back through Idx, so
// records (or encoded lines) are never moved during the sort — only
// these fixed-width handles are.
type KeyRef struct {
	Key Key
	Idx int32
}

const (
	// radixCutoff is the bucket size at or below which the sort falls
	// back to insertion sort: below it the per-bucket radix overhead
	// (a difference scan plus a 256-entry counting pass) costs more
	// than ~cutoff²/4 comparisons, each a few inline word compares
	// (after). Re-measured at 16, 32, 48 and 64, no other cutoff moved
	// BenchmarkSort beyond its run-to-run spread (EXPERIMENTS.md,
	// "Parsed and sorted by table and key word").
	radixCutoff = 32
	// nameDigit is the first Start digit. A bucket still tied at this
	// depth shares (Rank, Prefix) entirely; if that prefix packs a
	// beyond-table name, full names order before start/end — see the
	// Key docs — so the remaining digits must not decide.
	nameDigit = 16
)

// RadixSort sorts refs into the total order cmp defines, using radix
// passes over the Key digits wherever they are decisive. cmp must be a
// strict total order consistent with the key bytes — CompareKeyName
// extended with a tie-break (typically Idx, which makes the result
// identical to a stable comparison sort over input order) — because
// the radix passes order by Digit alone and consult cmp only where
// digits cannot decide.
func RadixSort(refs []KeyRef, cmp func(a, b KeyRef) int) {
	if len(refs) <= radixCutoff {
		insertionSort(refs, cmp)
		return
	}
	digit := nextDigit(refs)
	if digit >= KeyBytes || (digit >= nameDigit && refs[0].Key.NamePacked()) {
		// Fully-equal keys (only the tie-break orders), or beyond-table
		// names colliding in the whole packed prefix (the full name
		// orders before the remaining digits). cmp is total, so the
		// unstable sort is deterministic.
		slices.SortFunc(refs, cmp)
		return
	}
	var count [256]int
	for i := range refs {
		count[refs[i].Key.Digit(digit)]++
	}
	// American flag: off tracks each bucket's fill point, last its end.
	// Every swap places one element into its final bucket region, so
	// the permutation is a single linear pass over the slice.
	var off, last [256]int
	sum := 0
	for b := 0; b < 256; b++ {
		off[b] = sum
		sum += count[b]
		last[b] = sum
	}
	for b := 0; b < 256; b++ {
		for i := off[b]; i < last[b]; i = off[b] {
			d := refs[i].Key.Digit(digit)
			if int(d) == b {
				off[b] = i + 1
			} else {
				refs[i], refs[off[d]] = refs[off[d]], refs[i]
				off[d]++
			}
		}
	}
	sum = 0
	for b := 0; b < 256; b++ {
		if n := count[b]; n > 1 {
			RadixSort(refs[sum:sum+n], cmp)
		}
		sum += count[b]
	}
}

// nextDigit returns the first digit position at which the keys differ,
// or KeyBytes when all keys are equal. One word-wide XOR-fold pass
// replaces a counting pass per constant digit — which matters because
// packed keys are mostly constant bytes (the rank fits one byte,
// ranked chromosomes zero the whole prefix word, and genome
// coordinates zero the high Start/End bytes). A bucket always agrees
// on every digit a parent pass already consumed, so the result never
// moves backwards.
func nextDigit(refs []KeyRef) int {
	first := refs[0].Key
	var dRank, dPrefix, dStart, dEnd uint64
	for i := 1; i < len(refs); i++ {
		k := &refs[i].Key
		dRank |= k.Rank ^ first.Rank
		dPrefix |= k.Prefix ^ first.Prefix
		dStart |= k.Start ^ first.Start
		dEnd |= k.End ^ first.End
	}
	for w, diff := range [4]uint64{dRank, dPrefix, dStart, dEnd} {
		if diff != 0 {
			return w*8 + bits.LeadingZeros64(diff)/8
		}
	}
	return KeyBytes
}

// insertionSort is the small-bucket terminal sort (stable, though
// stability is moot under a total cmp). It orders by the key words
// inline and calls cmp only where RadixSort's contract leaves the order
// to it: a full-key tie, or a (Rank, Prefix) tie between NamePacked
// keys, where the full names decide before Start and End.
func insertionSort(refs []KeyRef, cmp func(a, b KeyRef) int) {
	for i := 1; i < len(refs); i++ {
		for j := i; j > 0 && after(&refs[j-1], &refs[j], cmp); j-- {
			refs[j-1], refs[j] = refs[j], refs[j-1]
		}
	}
}

// after reports whether a orders after b, as cmp(*a, *b) > 0 does.
func after(a, b *KeyRef, cmp func(a, b KeyRef) int) bool {
	ka, kb := &a.Key, &b.Key
	switch {
	case ka.Rank != kb.Rank:
		return ka.Rank > kb.Rank
	case ka.Prefix != kb.Prefix:
		return ka.Prefix > kb.Prefix
	case ka.NamePacked():
		return cmp(*a, *b) > 0
	case ka.Start != kb.Start:
		return ka.Start > kb.Start
	case ka.End != kb.End:
		return ka.End > kb.End
	}
	return cmp(*a, *b) > 0
}
