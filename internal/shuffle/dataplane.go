package shuffle

// The shuffle's binary-key data plane: a mapper keys its slice's lines
// by bed.Key into one index, radix-sorts that index once and cuts the
// lines, in key order, into one sorted run per reducer at the partition
// boundaries before they are written (the sorted-run invariant on
// scratch objects), and reducers stream a k-way merge over the runs
// instead of concatenating, re-parsing, and full-sorting them. TSV bytes flow
// through the merge verbatim — only the three key columns of each line
// are ever parsed on the reduce side.

import (
	"bytes"
	"errors"
	"strconv"
	"sync"

	"github.com/faaspipe/faaspipe/internal/bed"
)

// The data plane recycles a mapper's scratch across activations instead
// of leaving it to the GC: its line buffer and KeyRef index cycle
// through these pools. Only scratch whose lifetime ends inside finish()
// is pooled — a buffer that escapes as the runs never is.

// slicePool recycles capacity-bearing slices through boxed pointers:
// the *[]T box travels with its slice, so neither get nor put
// allocates in steady state (a Put of the bare slice header would box
// it on every call).
type slicePool[T any] struct{ p sync.Pool }

func (s *slicePool[T]) get(capHint int) *[]T {
	if v := s.p.Get(); v != nil {
		b := v.(*[]T)
		if cap(*b) < capHint {
			// A recycled slice below the hint would regrow through
			// append doublings — the cost the hint exists to avoid;
			// keep the box, replace the array.
			*b = make([]T, 0, capHint)
		}
		return b
	}
	sl := make([]T, 0, capHint)
	return &sl
}

func (s *slicePool[T]) put(b *[]T) {
	*b = (*b)[:0]
	s.p.Put(b)
}

var (
	lineBufPool slicePool[byte]
	keyRefPool  slicePool[bed.KeyRef]
)

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

// runBuilder builds a mapper's sorted runs: its lines, each ended by
// '\n', go into one buffer, with one key index over them whose Idx is
// the line's byte offset in buf. It never materializes a []bed.Record:
// lines are copied (or, when not canonical, re-written) straight into
// the buffer, and finish sorts the index once and cuts the lines, in
// key order, into one run per reducer at the boundaries. The 32-bit
// offsets bound the buffer at 2 GiB, far above any per-worker slice the
// planner's memory model admits; addLine rejects a line that would
// cross it. bufBox/refsBox are the pool boxes backing buf and refs (nil
// for caller-owned memory, e.g. in tests); recycle returns them.
type runBuilder struct {
	bounds  []boundary
	fanOut  int
	buf     []byte
	refs    []bed.KeyRef
	bufBox  *[]byte
	refsBox *[]bed.KeyRef
}

// newRunBuilder makes a builder of fanOut runs cut at bounds, its buffer
// reserved for size bytes and its index for lines lines, from the pools.
func newRunBuilder(fanOut int, bounds []boundary, size, lines int) runBuilder {
	b := runBuilder{bounds: bounds, fanOut: fanOut,
		bufBox: lineBufPool.get(size), refsBox: keyRefPool.get(lines)}
	b.buf, b.refs = *b.bufBox, *b.refsBox
	return b
}

// addLine parses one raw input line and appends it to the buffer: a
// canonical line (bed.ParseLineCanonical) as it was read, any other as
// bed.AppendTSV writes its record, so that every run holds the bytes
// bed.Marshal would.
func (b *runBuilder) addLine(line []byte) error {
	rec, canonical, err := bed.ParseLineCanonical(line)
	if err != nil {
		return err
	}
	off := len(b.buf)
	if off > 1<<31-1 {
		// KeyRef's int32 offsets would wrap; fail loudly instead of
		// corrupting the run index.
		return errBufferTooLarge
	}
	if canonical {
		b.buf = append(append(b.buf, line...), '\n')
	} else {
		b.buf = bed.AppendTSV(b.buf, rec)
	}
	b.refs = append(b.refs, bed.KeyRef{Key: bed.KeyOf(rec), Idx: int32(off)})
	return nil
}

// SortRun sorts a bedMethyl buffer into one run, the VM strategy's local
// sort: a runBuilder of one run, reserved from the buffer's length and
// line count, fed the lines bed.EachLine splits through the mappers'
// addLine. It accepts what bed.Unmarshal accepts and fails as it does, a
// line that does not parse being a *bed.ParseError with its number. Its
// bytes are bed.Marshal(bed.Sort(bed.Unmarshal(raw))).
func SortRun(raw []byte) ([]byte, error) {
	b := newRunBuilder(1, nil, len(raw), bytes.Count(raw, []byte{'\n'})+1)
	if err := bed.EachLine(raw, func(line []byte, lineNo int) error {
		if bed.IsBlank(line) {
			return nil
		}
		err := b.addLine(line)
		if err != nil && !errors.Is(err, errBufferTooLarge) {
			err = &bed.ParseError{Line: lineNo, Msg: err.Error()}
		}
		return err
	}); err != nil {
		return nil, err
	}
	return b.finish()[0], nil
}

// finish sorts the lines into key order and cuts them into the fanOut
// runs, each out[a:b:b] of one buffer and nil for a reducer that gets no
// line. Input already in key order (common for pre-sorted data) is kept
// as it is: no sort, no copy.
func (b *runBuilder) finish() [][]byte {
	sorted := true
	for i := 1; i < len(b.refs); i++ {
		x, y := b.refs[i-1], b.refs[i]
		if compareLineKeys(x.Key, b.buf[x.Idx:], y.Key, b.buf[y.Idx:]) > 0 {
			sorted = false
			break
		}
	}
	// A recycled buffer can be arbitrarily larger than the runs it now
	// carries (a small job after a large one); sorted lines are copied
	// out of it too rather than let the escaping runs pin the whole
	// pooled backing array, and the big buffer is recycled.
	n := len(b.buf)
	copyOut := !sorted || b.bufBox != nil && cap(b.buf) > n+n/2 && cap(b.buf)-n > 64<<10
	if !sorted {
		// MSD radix sort the index in place over the packed key bytes.
		// Offsets rise in append order, so the Idx tie-break reproduces
		// the byte order a stable comparison sort over input order
		// would emit.
		bed.RadixSort(b.refs, func(x, y bed.KeyRef) int {
			if c := compareLineKeys(x.Key, b.buf[x.Idx:], y.Key, b.buf[y.Idx:]); c != 0 {
				return c
			}
			return int(x.Idx) - int(y.Idx)
		})
	}
	out := b.buf
	if copyOut {
		out = make([]byte, 0, n)
	}
	// Copy the lines out in key order, each through the '\n' after its
	// offset, and cut a run wherever a boundary is passed.
	runs := make([][]byte, b.fanOut)
	r, start, end := 0, 0, 0
	for _, ref := range b.refs {
		line := b.buf[ref.Idx:]
		line = line[:bytes.IndexByte(line, '\n')+1]
		if next := runOf(b.bounds, r, ref.Key, line); next != r {
			runs[r], start, r = cut(out, start, end), end, next
		}
		if copyOut {
			out = append(out, line...)
		}
		end += len(line)
	}
	runs[r] = cut(out, start, end)
	b.recycle(copyOut)
	return runs
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

// cut returns out[a:b:b], or nil when the span is empty.
func cut(out []byte, a, b int) []byte {
	if a == b {
		return nil
	}
	return out[a:b:b]
}

// recycle returns the builder's pooled scratch; withBuf is set when the
// byte buffer did not escape as the runs (a buffer that did escape keeps
// its memory and its box is simply dropped).
func (b *runBuilder) recycle(withBuf bool) {
	if b.refsBox != nil {
		*b.refsBox = b.refs
		keyRefPool.put(b.refsBox)
	}
	if withBuf && b.bufBox != nil {
		*b.bufBox = b.buf
		lineBufPool.put(b.bufBox)
	}
	b.buf, b.refs, b.bufBox, b.refsBox = nil, nil, nil, nil
}

var (
	errNoLineStart    = errors.New("no line start in slice")
	errBufferTooLarge = errors.New("a run buffer exceeds the 2 GiB run-index bound")
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

// partKey names the intermediate object mapper m writes for reducer r.
// It runs workers^2 times per job, so the key is built on the stack
// (every job ID the package makes fits; a longer one grows the slice)
// and the string is its one allocation.
func partKey(jobID string, m, r int) string {
	var buf [64]byte
	b := append(buf[:0], jobID...)
	b = append(b, '/', 'm')
	b = appendIndex4(b, m)
	b = append(b, '_', 'r')
	b = appendIndex4(b, r)
	return string(b)
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
