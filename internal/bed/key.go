package bed

// Key is a fixed-width, order-preserving binary sort key: comparing
// two Keys with CompareKey orders records like Less orders them,
// without re-parsing chromosome names on every comparison. The
// shuffle's data plane (boundary sampling, partition routing, sorted
// runs, the k-way merge) works entirely on Keys; the string keys it
// replaced cost an fmt.Sprintf per record.
//
// Layout: Rank is the full chromosome rank (chr1..chr22, X=23, Y=24,
// M=25; beyond-table names rank 26; larger numeric suffixes keep their
// value, e.g. chr300 ranks 300, never truncated). Prefix holds the
// first eight bytes, big-endian, of the rank-26 "extra" name Less
// tie-breaks on — zero for every ranked chromosome, so lexicographic
// name order is preserved up to the prefix and ranked chromosomes
// (whose extra is empty) sort before every named one. Start and End
// are the interval bounds with the sign bit flipped, making unsigned
// comparison match signed order for any int64.
//
// Two distinct beyond-table names sharing an 8-byte prefix compare
// equal in (Rank, Prefix), which alone would misorder records from
// different scaffolds (Start would decide before the rest of the
// name). Every consumer that can see such ties therefore goes through
// CompareKeyName, which consults the full name exactly where Less
// would — pure CompareKey is only a complete order for keys whose
// NamePacked prefixes differ or whose chromosomes are ranked.
type Key struct {
	Rank   uint64
	Prefix uint64
	Start  uint64
	End    uint64
}

// NamePacked reports whether the key carries a beyond-table name
// prefix: a (Rank, Prefix) tie between two NamePacked keys needs the
// full names consulted (CompareKeyName) for exact genome order.
// Ranked chromosomes — including numeric ones that happen to rank 26+
// — have a zero Prefix and never compare names, matching Less.
func (k Key) NamePacked() bool { return k.Prefix != 0 }

// orderInt64 maps an int64 to a uint64 whose unsigned order matches
// the signed order.
func orderInt64(v int64) uint64 {
	return uint64(v) ^ (1 << 63)
}

// chromWords computes a chromosome name's (Rank, Prefix) words: from
// chromTab for the names it holds, else by rankWords.
func chromWords[T ChromName](chrom T) (uint64, uint64) {
	if i := chromIndex(chrom); i >= 0 {
		return chromTab[i].rank, chromTab[i].prefix
	}
	return rankWords(string(chrom))
}

// rankWords packs chromRank's answer for a name into (Rank, Prefix).
func rankWords(chrom string) (uint64, uint64) {
	rank, extra := chromRank(chrom)
	var prefix uint64
	for i := 0; i < len(extra) && i < 8; i++ {
		prefix |= uint64(extra[i]) << (56 - 8*i)
	}
	return uint64(rank), prefix
}

// KeyOf computes the record's binary sort key.
func KeyOf(r Record) Key {
	rank, prefix := chromWords(r.Chrom)
	return Key{
		Rank:   rank,
		Prefix: prefix,
		Start:  orderInt64(r.Start),
		End:    orderInt64(r.End),
	}
}

// ChromName constrains CompareKeyName's name arguments: chromosome
// names arrive as Record.Chrom strings on the map side and as raw TSV
// column slices on the merge side.
type ChromName interface{ ~string | ~[]byte }

// compareNames is a lexicographic compare across string/[]byte mixes.
func compareNames[A, B ChromName](a A, b B) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// CompareKeyName orders (key, chromosome-name) pairs in exact genome
// order: when two beyond-table chromosomes tie in the key's 8-byte
// name prefix, the full name decides before start/end — precisely
// where Less consults it. Ranked chromosomes never compare names
// ("chr07" and "chr7" are the same rank), so passing their names is
// free.
func CompareKeyName[A, B ChromName](a Key, nameA A, b Key, nameB B) int {
	switch {
	case a.Rank != b.Rank:
		if a.Rank < b.Rank {
			return -1
		}
		return 1
	case a.Prefix != b.Prefix:
		if a.Prefix < b.Prefix {
			return -1
		}
		return 1
	}
	if a.NamePacked() {
		// Beyond-table names sharing the whole prefix: the full name
		// (which is Less's "extra" for rank-26 chromosomes) decides.
		if c := compareNames(nameA, nameB); c != 0 {
			return c
		}
	}
	switch {
	case a.Start != b.Start:
		if a.Start < b.Start {
			return -1
		}
		return 1
	case a.End != b.End:
		if a.End < b.End {
			return -1
		}
		return 1
	}
	return 0
}

// KeyBytes is the number of bytes in a Key's big-endian digit string:
// four 8-byte words (Rank, Prefix, Start, End), most significant byte
// first — the digit alphabet RadixSort walks.
const KeyBytes = 32

// Digit returns byte i (0 <= i < KeyBytes) of the key's big-endian
// byte string, the MSD radix sort's i-th digit. Digit order matches
// CompareKey: bytes 0..7 are Rank, 8..15 Prefix, 16..23 Start, and
// 24..31 End.
func (k Key) Digit(i int) byte {
	var w uint64
	switch i >> 3 {
	case 0:
		w = k.Rank
	case 1:
		w = k.Prefix
	case 2:
		w = k.Start
	default:
		w = k.End
	}
	return byte(w >> (56 - 8*(i&7)))
}

// CompareKey orders keys like Less orders the records they came from:
// chromosome (rank, then name prefix), then start, then end. It
// returns -1, 0, or +1. See the Key docs for the name-prefix caveat —
// CompareKeyName is the exact order when full names are at hand.
func CompareKey(a, b Key) int {
	switch {
	case a.Rank != b.Rank:
		if a.Rank < b.Rank {
			return -1
		}
		return 1
	case a.Prefix != b.Prefix:
		if a.Prefix < b.Prefix {
			return -1
		}
		return 1
	case a.Start != b.Start:
		if a.Start < b.Start {
			return -1
		}
		return 1
	case a.End != b.End:
		if a.End < b.End {
			return -1
		}
		return 1
	}
	return 0
}

// KeyOfLine computes the sort key of a TSV-encoded record from its
// first three columns alone, allocation-free for the names chromTab
// holds. It is the fast path of the shuffle's merge cursors, which
// never materialize a Record: only chrom, start, and end are parsed,
// the integers by ParseLine's scan.
func KeyOfLine(line []byte) (Key, error) {
	t1 := fieldEnd(line, 0)
	if t1 == len(line) {
		return Key{}, errKeyFields
	}
	start, t2, okStart, _ := scanInt(line, t1+1)
	if t2 == len(line) {
		return Key{}, errKeyFields
	}
	if !okStart {
		return Key{}, errKeyStart
	}
	end, _, ok, _ := scanInt(line, t2+1)
	if !ok {
		return Key{}, errKeyEnd
	}
	rank, prefix := chromWords(line[:t1])
	return Key{
		Rank:   rank,
		Prefix: prefix,
		Start:  orderInt64(start),
		End:    orderInt64(end),
	}, nil
}
