package shuffle

// The shuffle's binary-key data plane: a mapper indexes its slice's
// lines by bed.Key where they were read, radix-sorts that index once and
// copies the lines, in key order, into one buffer cut into one sorted
// run per reducer at the partition boundaries before they are written
// (the sorted-run invariant on scratch objects), and reducers stream a
// k-way merge over the runs instead of concatenating, re-parsing, and
// full-sorting them. TSV bytes flow through the merge verbatim — only
// the three key columns of each line are ever parsed on the reduce side.

import (
	"bytes"
	"cmp"
	"errors"
	"math"
	"slices"
	"strconv"
	"strings"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/lists"
)

// keyIndexes holds the key indexes no runBuilder is using, by capacity.
// A builder takes one at its first line, emptied, and puts it back at
// finish, so a later mapper, the VM's sort or the next job reuses its
// array.
var keyIndexes = lists.Free[[]bed.KeyRef]{
	Size:  func(refs []bed.KeyRef) int { return cap(refs) },
	Fresh: func(n int) []bed.KeyRef { return make([]bed.KeyRef, 0, n) }, // append would double its way there
}

// boundary is one partition boundary: a binary key plus the full
// chromosome name behind the key's packed prefix, so that cutting
// stays exact (monotone in genome order) even for beyond-table
// scaffold names that collide in the prefix.
type boundary struct {
	Key  bed.Key
	Name string
}

// chromOf returns the first column of an encoded TSV line.
func chromOf(line []byte) []byte {
	if i := bytes.IndexByte(line, '\t'); i >= 0 {
		return line[:i]
	}
	return line
}

// compareLineKeys orders (key, encoded-line) pairs in exact genome
// order: the full chromosome column breaks (rank, name-prefix) ties
// for beyond-table names, lazily — the column is only sliced out on
// the rare tie-with-packed-name path.
func compareLineKeys(ak bed.Key, aLine []byte, bk bed.Key, bLine []byte) int {
	if ak.Rank == bk.Rank && ak.Prefix == bk.Prefix && ak.NamePacked() {
		if c := bytes.Compare(chromOf(aLine), chromOf(bLine)); c != 0 {
			return c
		}
	}
	return bed.CompareKey(ak, bk)
}

// runBuilder builds a mapper's sorted runs out of the bytes it read,
// the span, which it is handed at finish: it owns only a key index over
// the lines, whose Idx is the line's offset in the span, and the output.
// It never materializes a []bed.Record or a copy of its input: finish
// sorts the index once and copies the lines, in key order, from where
// they were read into one buffer cut into one run per reducer at the
// boundaries. A line is copied from the span only if it is canonical
// (bed.ParseLineCanonical) and a '\n' follows it there; any other (a
// rewritten line, a CRLF line, the object's unterminated last line) is
// written as bed.AppendTSV writes its record into a side buffer, made at
// the first such line, and still indexed by its offset in the span, so
// equal keys keep input order. The 32-bit offsets bound the span at
// 2 GiB, far above any per-worker slice the planner's memory model
// admits; newRunBuilder rejects a longer one. The index is taken from
// keyIndexes and goes back there at finish; a builder that is never
// finished, its read failed, leaves its index to the GC.
type runBuilder struct {
	bounds []boundary
	fanOut int
	refs   []bed.KeyRef
	size   int        // the runs' bytes: every line through its '\n'
	side   []byte     // the lines not copied from the span, each ended by '\n'
	sides  []sideLine // where each of them was read, in input order
}

// sideLine places a side-buffered line: off in the span, at in side.
type sideLine struct {
	off int32
	at  int
}

// newRunBuilder makes a builder of fanOut runs cut at bounds over a span
// of n bytes, its index taken from keyIndexes with room for lines lines.
func newRunBuilder(fanOut int, bounds []boundary, n int64, lines int) (runBuilder, error) {
	if n > math.MaxInt32 {
		// KeyRef's int32 offsets would wrap; fail loudly instead of
		// corrupting the run index.
		return runBuilder{}, errSpanTooLarge
	}
	return runBuilder{bounds: bounds, fanOut: fanOut, refs: keyIndexes.Take(lines)[:0]}, nil
}

// addLine parses one raw input line, which starts at off in the span,
// and indexes it; nl reports that a '\n' follows it there. A canonical
// line so ended is copied from the span at finish, any other is written
// now as bed.AppendTSV writes its record, so that every run holds the
// bytes bed.Marshal would.
func (b *runBuilder) addLine(line []byte, off int, nl bool) error {
	rec, canonical, err := bed.ParseLineCanonical(line)
	if err != nil {
		return err
	}
	if canonical && nl {
		b.size += len(line) + 1
	} else {
		at := len(b.side)
		b.side = bed.AppendTSV(b.side, rec)
		b.sides = append(b.sides, sideLine{off: int32(off), at: at})
		b.size += len(b.side) - at
	}
	b.refs = append(b.refs, bed.KeyRef{Key: bed.KeyOf(rec), Idx: int32(off)})
	return nil
}

// SortRun sorts a bedMethyl buffer into one run, the VM strategy's local
// sort: a runBuilder of one run over raw, its index reserved from the
// line count, fed the lines bed.EachLine splits through the mappers'
// addLine. It accepts what bed.Unmarshal accepts and fails as it does, a
// line that does not parse being a *bed.ParseError with its number. Its
// bytes are bed.Marshal(bed.Sort(bed.Unmarshal(raw))).
func SortRun(raw []byte) ([]byte, error) {
	b, err := newRunBuilder(1, nil, int64(len(raw)), bytes.Count(raw, []byte{'\n'})+1)
	if err != nil {
		return nil, err
	}
	next := 0 // where the next line starts in raw
	if err := bed.EachLine(raw, func(line []byte, lineNo int) error {
		off, end := next, next+len(line)
		nl := end < len(raw) && raw[end] == '\n'
		if !nl && end < len(raw) {
			end++ // the '\r' EachLine took off the line
		}
		next = end + 1
		if bed.IsBlank(line) {
			return nil
		}
		if err := b.addLine(line, off, nl); err != nil {
			return &bed.ParseError{Line: lineNo, Msg: err.Error()}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return b.finish(raw)[0], nil
}

// finish sorts the index into key order and copies the lines, in that
// order, into one buffer of exactly the runs' bytes, cut into the fanOut
// runs: each out[a:b:b], nil for a reducer that gets no line. span must
// hold the bytes the lines were read from, at the offsets addLine was
// given. Input already in key order is not sorted, only copied.
func (b *runBuilder) finish(span []byte) [][]byte {
	sorted := true
	for i := 1; i < len(b.refs); i++ {
		x, y := b.refs[i-1], b.refs[i]
		if compareLineKeys(x.Key, b.from(span, x.Idx), y.Key, b.from(span, y.Idx)) > 0 {
			sorted = false
			break
		}
	}
	if !sorted {
		// MSD radix sort the index in place over the packed key bytes.
		// Offsets rise in input order, so the Idx tie-break reproduces
		// the byte order a stable comparison sort over input order
		// would emit.
		bed.RadixSort(b.refs, func(x, y bed.KeyRef) int {
			if c := compareLineKeys(x.Key, b.from(span, x.Idx), y.Key, b.from(span, y.Idx)); c != 0 {
				return c
			}
			return int(x.Idx) - int(y.Idx)
		})
	}
	// Copy the lines out in key order, each through its '\n', and cut a
	// run wherever a boundary is passed.
	out := make([]byte, 0, b.size)
	runs := make([][]byte, b.fanOut)
	r, start := 0, 0
	for _, ref := range b.refs {
		line := b.from(span, ref.Idx)
		line = line[:bytes.IndexByte(line, '\n')+1]
		if next := runOf(b.bounds, r, ref.Key, line); next != r {
			runs[r], start, r = cut(out, start, len(out)), len(out), next
		}
		out = append(out, line...)
	}
	runs[r] = cut(out, start, len(out))
	keyIndexes.Put(b.refs)
	*b = runBuilder{}
	return runs
}

// from returns the bytes from the start of the line indexed at off on:
// the side buffer's if the line was written there, else the span's.
func (b *runBuilder) from(span []byte, off int32) []byte {
	if len(b.sides) > 0 {
		if i, ok := slices.BinarySearchFunc(b.sides, off, func(s sideLine, off int32) int {
			return cmp.Compare(s.off, off)
		}); ok {
			return b.side[b.sides[i].at:]
		}
	}
	return span[off:]
}

// runOf returns the run a line of key falls in, r or a later one: lines
// come in key order, so the walk only moves forward, and a key equal to
// a boundary goes right of it.
func runOf(bounds []boundary, r int, key bed.Key, line []byte) int {
	for r < len(bounds) && bed.CompareKeyName(bounds[r].Key, bounds[r].Name, key, chromOf(line)) <= 0 {
		r++
	}
	return r
}

// cut returns out[a:b:b], or nil when that is empty.
func cut(out []byte, a, b int) []byte {
	if a == b {
		return nil
	}
	return out[a:b:b]
}

var (
	errNoLineStart  = errors.New("no line start in slice")
	errSpanTooLarge = errors.New("the bytes a run builder indexes exceed its 2 GiB bound")
)

// appendIndex4 appends n zero-padded to four digits (the %04d the
// data plane's key formats use). Indices past 9999 widen to 8 (then
// 19) zero-padded digits behind a prefix letter that sorts after every
// digit byte, so generated names keep sorting in index order
// lexicographically — a consumer listing the output prefix sees the
// parts in global order — where growing digit count like fmt's %04d
// does would interleave ("part-10000" < "part-9999" in byte order).
func appendIndex4(b []byte, n int) []byte {
	switch {
	case n < 0:
		// Indices are never negative; keep fmt's rendering if a bug
		// ever produces one.
		return strconv.AppendInt(b, int64(n), 10)
	case n <= 9999:
		return append(b,
			byte('0'+n/1000), byte('0'+n/100%10), byte('0'+n/10%10), byte('0'+n%10))
	case n <= 99999999:
		b = append(b, 'x')
		for shift := 10000000; shift > 0; shift /= 10 {
			b = append(b, byte('0'+n/shift%10))
		}
		return b
	default:
		b = append(b, 'y')
		for shift := int64(1000000000000000000); shift > 0; shift /= 10 {
			b = append(b, byte('0'+int64(n)/shift%10))
		}
		return b
	}
}

// appendPartKey appends the name of the intermediate object mapper m of
// job jobID writes for reducer r: <jobID>/mNNNN_rNNNN.
func appendPartKey(b []byte, jobID string, m, r int) []byte {
	b = append(b, jobID...)
	b = append(b, '/', 'm')
	b = appendIndex4(b, m)
	b = append(b, '_', 'r')
	return appendIndex4(b, r)
}

// partKeys names the n runs of one exchange, key i being the part key
// of at(i). An exchange has up to workers^2 of them, so each is built on
// the stack (every job ID the package makes fits; a longer one grows the
// slice) and copied into one block they are all cut from: the keys cost
// their slice and the block, not a string each. A key longer than the
// first (an index past 9999) may start a new block; those before it keep
// theirs.
func partKeys(n int, at func(i int) (jobID string, m, r int)) []string {
	keys := make([]string, n)
	var block strings.Builder
	var buf [64]byte
	for i := range keys {
		jobID, m, r := at(i)
		key := appendPartKey(buf[:0], jobID, m, r)
		if i == 0 {
			block.Grow(n * len(key))
		}
		block.Write(key)
		keys[i] = block.String()[block.Len()-len(key):]
	}
	return keys
}

// OutputKey names output part idx of a sort, whatever strategy wrote it:
// <prefix>part-NNNN, widening as appendIndex4 does, so that a listing of
// the prefix is in global order.
func OutputKey(prefix string, idx int) string {
	var buf [64]byte
	b := append(buf[:0], prefix...)
	b = append(b, "part-"...)
	b = appendIndex4(b, idx)
	return string(b)
}
