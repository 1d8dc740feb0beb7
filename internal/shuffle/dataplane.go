package shuffle

// The shuffle's binary-key data plane: mappers route records into
// per-reducer partitions keyed by bed.Key, sort each partition into a
// sorted run before it is written (the sorted-run invariant on scratch
// objects), and reducers stream a k-way merge over the runs instead of
// concatenating, re-parsing, and full-sorting them. TSV bytes flow
// through the merge verbatim — only the three key columns of each line
// are ever parsed on the reduce side.

import (
	"bytes"
	"errors"
	"sort"
	"strconv"
	"sync"

	"github.com/faaspipe/faaspipe/internal/bed"
)

// The data plane recycles its per-partition scratch across activations
// instead of leaving it to the GC: partition byte buffers and their
// KeyRef indexes cycle through these pools. Only scratch whose lifetime
// ends inside finish() is pooled — run buffers that escape into
// payloads never are.

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
			// append doublings — the cost sizeHint exists to avoid;
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
	partBufPool slicePool[byte]
	keyRefPool  slicePool[bed.KeyRef]
)

// boundary is one partition boundary: a binary key plus the full
// chromosome name behind the key's packed prefix, so that routing
// stays exact (monotone in genome order) even for beyond-table
// scaffold names that collide in the prefix.
type boundary struct {
	Key  bed.Key
	Name string
}

// partitionIndex returns the partition for a (key, chrom-name) pair
// given sorted boundaries: index i such that boundaries[i-1] <= key <
// boundaries[i], with keys equal to a boundary routed right — the
// binary-search equivalent of the legacy string search on key+"\x00".
func partitionIndex[T bed.ChromName](key bed.Key, name T, boundaries []boundary) int {
	return sort.Search(len(boundaries), func(i int) bool {
		return bed.CompareKeyName(boundaries[i].Key, boundaries[i].Name, key, name) > 0
	})
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

// runPart accumulates one reducer's partition: lines, each ended by
// '\n', plus one key index over them whose Idx is the line's byte
// offset in buf. The 32-bit offsets bound a partition buffer at 2 GiB,
// far above any per-worker slice the planner's memory model admits;
// place rejects a partition that would cross it. bufBox/refsBox are the
// pool boxes backing the slices when grow drew them from the pools (nil
// for caller-owned memory, e.g. in tests); recycle returns them.
type runPart struct {
	buf     []byte
	refs    []bed.KeyRef
	bufBox  *[]byte
	refsBox *[]bed.KeyRef
}

// runBuilder routes lines into per-reducer partitions and finishes each
// as a sorted run. It never materializes a []bed.Record: lines are
// copied (or, when not canonical, re-written) straight into partition
// buffers, and sorting permutes the partition's key index in place.
type runBuilder struct {
	bounds  []boundary
	parts   []runPart
	partCap int // per-partition first-allocation size; 0 grows organically
	refCap  int // per-partition first KeyRef reservation
}

func newRunBuilder(workers int, bounds []boundary) *runBuilder {
	return &runBuilder{bounds: bounds, parts: make([]runPart, workers)}
}

// sizeHint pre-sizes each partition's buffers for an expected total
// input volume (+25% headroom for boundary skew), sparing the append
// path its regrowth copies.
func (b *runBuilder) sizeHint(totalBytes int) {
	if totalBytes > 0 && len(b.parts) > 0 {
		per := totalBytes / len(b.parts)
		b.partCap = per + per/4
		b.refCap = b.partCap / 32 // bedMethyl lines run ~58 bytes; 32 leaves room for short ones
	}
}

func (b *runBuilder) place(key bed.Key, off int, p *runPart) error {
	if len(p.buf) > 1<<31-1 {
		// KeyRef's int32 offsets would wrap; fail loudly instead of
		// corrupting the run index.
		return errPartitionTooLarge
	}
	p.refs = append(p.refs, bed.KeyRef{Key: key, Idx: int32(off)})
	return nil
}

// grow readies a partition's buffers on first touch, recycling pooled
// scratch before allocating fresh.
func (b *runBuilder) grow(p *runPart) {
	if p.bufBox == nil {
		p.bufBox = partBufPool.get(b.partCap)
		p.buf = *p.bufBox
	}
	if p.refsBox == nil {
		p.refsBox = keyRefPool.get(b.refCap)
		p.refs = *p.refsBox
	}
}

// addLine parses one raw input line and routes it to its partition: a
// canonical line (bed.ParseLineCanonical) as it was read, any other as
// bed.AppendTSV writes its record, so that every run holds the bytes
// bed.Marshal would.
func (b *runBuilder) addLine(line []byte) error {
	rec, canonical, err := bed.ParseLineCanonical(line)
	if err != nil {
		return err
	}
	key := bed.KeyOf(rec)
	p := &b.parts[partitionIndex(key, rec.Chrom, b.bounds)]
	b.grow(p)
	off := len(p.buf)
	if canonical {
		p.buf = append(append(p.buf, line...), '\n')
	} else {
		p.buf = bed.AppendTSV(p.buf, rec)
	}
	return b.place(key, off, p)
}

// SortRun sorts a bedMethyl buffer into one run, the VM strategy's local
// sort: a runBuilder of one partition, reserved from the buffer's length
// and line count, fed the lines bed.EachLine splits through the mappers'
// addLine. It accepts what bed.Unmarshal accepts and fails as it does, a
// line that does not parse being a *bed.ParseError with its number. Its
// bytes are bed.Marshal(bed.Sort(bed.Unmarshal(raw))).
func SortRun(raw []byte) ([]byte, error) {
	b := newRunBuilder(1, nil)
	b.partCap, b.refCap = len(raw), bytes.Count(raw, []byte{'\n'})+1
	if err := bed.EachLine(raw, func(line []byte, lineNo int) error {
		if bed.IsBlank(line) {
			return nil
		}
		err := b.addLine(line)
		if err != nil && !errors.Is(err, errPartitionTooLarge) {
			err = &bed.ParseError{Line: lineNo, Msg: err.Error()}
		}
		return err
	}); err != nil {
		return nil, err
	}
	return b.parts[0].finish(), nil
}

// finish sorts every partition into a sorted run and returns the run
// buffers, one per reducer (nil for empty partitions).
func (b *runBuilder) finish() [][]byte {
	out := make([][]byte, len(b.parts))
	for i := range b.parts {
		out[i] = b.parts[i].finish()
	}
	return out
}

func (p *runPart) finish() []byte {
	sorted := true
	for i := 1; i < len(p.refs); i++ {
		a, b := p.refs[i-1], p.refs[i]
		if compareLineKeys(a.Key, p.buf[a.Idx:], b.Key, p.buf[b.Idx:]) > 0 {
			sorted = false
			break
		}
	}
	if sorted { // already a run (common for pre-sorted input): no copy
		out := p.buf
		if p.bufBox != nil && cap(out) > len(out)+len(out)/2 && cap(out)-len(out) > 64<<10 {
			// A recycled buffer can be arbitrarily larger than the run
			// it now carries (a small job after a large one); copy out
			// rather than let the escaping payload pin the whole pooled
			// backing array, and recycle the big buffer.
			out = append(make([]byte, 0, len(out)), out...)
			p.recycle(true)
		} else {
			p.recycle(false)
		}
		return out
	}
	// MSD radix sort the index in place over the packed key bytes, then
	// copy the lines out in key order, each through the '\n' after its
	// offset. Offsets rise in append order, so the Idx tie-break
	// reproduces the byte order a stable comparison sort over input
	// order would emit.
	bed.RadixSort(p.refs, func(a, b bed.KeyRef) int {
		if c := compareLineKeys(a.Key, p.buf[a.Idx:], b.Key, p.buf[b.Idx:]); c != 0 {
			return c
		}
		return int(a.Idx) - int(b.Idx)
	})
	dst := make([]byte, 0, len(p.buf))
	for _, r := range p.refs {
		line := p.buf[r.Idx:]
		dst = append(dst, line[:bytes.IndexByte(line, '\n')+1]...)
	}
	p.recycle(true)
	return dst
}

// recycle returns the partition's pooled scratch; withBuf is set when
// the byte buffer did not escape as the returned run (a buffer that
// did escape keeps its memory and its box is simply dropped).
func (p *runPart) recycle(withBuf bool) {
	if p.refsBox != nil {
		*p.refsBox = p.refs
		keyRefPool.put(p.refsBox)
	}
	if withBuf && p.bufBox != nil {
		*p.bufBox = p.buf
		partBufPool.put(p.bufBox)
	}
	p.buf, p.refs, p.bufBox, p.refsBox = nil, nil, nil, nil
}

var (
	errNoLineStart       = errors.New("no line start in slice")
	errPartitionTooLarge = errors.New("partition exceeds the 2 GiB run-index bound")
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
