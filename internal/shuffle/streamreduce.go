package shuffle

// The streaming reduce path: instead of buffering every mapper's run
// before the k-way merge starts, each run arrives as a stream of chunks
// (objectstore.Client.GetStream) and the merge begins as soon as every
// run's head chunk is in. A chunk-fed cursor parks on Stream.Next at
// chunk boundaries and carries a partial trailing line across them
// (the lineFeeder ownership rules), so transfer-in, merge CPU — charged
// per chunk at MergeBps — and the multipart transfer-out behind
// objectstore.Client.PutStream all overlap: the reduce leg costs
// max(transfer-in, mergeCPU, transfer-out) instead of their sum.

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

const (
	// minStreamChunk / maxStreamChunk clamp the adaptive chunk size: a
	// floor keeps per-chunk event overhead noise, the ceiling is the
	// stream layer's default granularity.
	minStreamChunk = 256 << 10
	maxStreamChunk = objectstore.DefaultStreamChunk
)

// AdaptiveChunkBytes picks the stream transfer granularity for a
// planned slice: an explicit spec override wins, otherwise slice/8
// clamped to [256 KiB, 4 MiB] — so a small job whose whole slice fits
// in one default 4 MiB chunk still gets ~8 chunks of genuine
// transfer/compute overlap instead of degenerating to a buffered read.
func AdaptiveChunkBytes(explicit, slice int64) int64 {
	if explicit > 0 {
		return explicit
	}
	c := slice / 8
	if c < minStreamChunk {
		c = minStreamChunk
	}
	if c > maxStreamChunk {
		c = maxStreamChunk
	}
	return c
}

// errSizedChunk aborts a streamed merge when a run turns out to be a
// timing-only payload; the driver falls back to draining byte counts.
var errSizedChunk = errors.New("shuffle: sized chunk in streamed run")

// runSource feeds one sorted run to the merge as a sequence of chunk
// payloads. next returns io.EOF when the run is exhausted; close
// releases the source (always safe, also after exhaustion).
type runSource interface {
	next(p *des.Proc) (payload.Payload, error)
	close()
}

// clientStreamSource adapts a resumable object-store stream.
type clientStreamSource struct{ cs *objectstore.ClientStream }

func (s clientStreamSource) next(p *des.Proc) (payload.Payload, error) { return s.cs.Next(p) }
func (s clientStreamSource) close()                                    { s.cs.Close() }

// payloadSource feeds an already-resident payload chunk by chunk — the
// cache's runs arrive via memcache Get (no streaming API), but chunked
// consumption still spreads the merge's CPU charges so the output
// writer's part uploads overlap them.
type payloadSource struct {
	pl    payload.Payload
	off   int64
	chunk int64
}

func (s *payloadSource) next(p *des.Proc) (payload.Payload, error) {
	size := s.pl.Size()
	if s.off >= size {
		return nil, io.EOF
	}
	n := s.chunk
	if n <= 0 {
		n = size
	}
	if s.off+n > size {
		n = size - s.off
	}
	out, err := s.pl.Slice(s.off, n)
	if err != nil {
		return nil, err
	}
	s.off += n
	return out, nil
}

func (s *payloadSource) close() {}

// streamCursor walks one chunk-fed sorted run line by line during a
// merge. Lines fully inside a chunk are views into the chunk's payload
// bytes (which outlive the chunk); a line spanning chunks is assembled
// in one of two alternating carry buffers, so the sortedness check's
// previous line — possibly itself carried — stays intact while the
// next one assembles.
type streamCursor struct {
	src    runSource
	proc   *des.Proc
	charge func(n int64) // per-chunk merge CPU, nil for none

	chunk []byte    // unconsumed tail of the current chunk
	carry [2][]byte // alternating partial-line buffers
	flip  int       // carry[flip] may hold the live line; 1-flip assembles

	line  []byte
	key   bed.Key
	idx   int
	live  bool
	eof   bool
	total int64 // bytes pulled from the source
}

// nextChunk pulls and charges the next chunk. io.EOF at range end;
// errSizedChunk on a timing-only payload.
func (c *streamCursor) nextChunk() error {
	pl, err := c.src.next(c.proc)
	if err != nil {
		return err
	}
	n := pl.Size()
	c.total += n
	if c.charge != nil {
		c.charge(n)
	}
	raw, real := pl.Bytes()
	if !real {
		return errSizedChunk
	}
	c.chunk = raw
	return nil
}

// advance loads the cursor's next non-blank line, pulling chunks as
// needed and verifying the run stays sorted across chunk boundaries
// (the mappers' invariant — a violation here means a corrupted scratch
// object, and silently merging it would emit unsorted output).
func (c *streamCursor) advance() error {
	prevKey, prevLine, hadPrev := c.key, c.line, c.live
	c.live = false
	carry := c.carry[1-c.flip][:0]
	for {
		if len(c.chunk) == 0 {
			if !c.eof {
				switch err := c.nextChunk(); {
				case err == nil:
					continue
				case errors.Is(err, io.EOF):
					c.eof = true
				default:
					return err
				}
			}
			// Stream drained: flush the unterminated final line.
			c.carry[1-c.flip] = carry
			if len(bytes.TrimSpace(carry)) == 0 {
				return nil
			}
			return c.load(carry, prevKey, prevLine, hadPrev, true)
		}
		nl := bytes.IndexByte(c.chunk, '\n')
		if nl < 0 {
			carry = append(carry, c.chunk...)
			c.chunk = nil
			continue
		}
		line := c.chunk[:nl]
		fromCarry := false
		if len(carry) > 0 {
			carry = append(carry, line...)
			line = carry
			fromCarry = true
		}
		c.chunk = c.chunk[nl+1:]
		if len(bytes.TrimSpace(line)) == 0 {
			carry = carry[:0]
			continue
		}
		c.carry[1-c.flip] = carry
		return c.load(line, prevKey, prevLine, hadPrev, fromCarry)
	}
}

// load keys and verifies one line. A carried line claims its buffer by
// flipping, protecting it until the line after next assembles.
func (c *streamCursor) load(line []byte, prevKey bed.Key, prevLine []byte, hadPrev, fromCarry bool) error {
	key, err := bed.KeyOfLine(line)
	if err != nil {
		return fmt.Errorf("run %d: %w", c.idx, err)
	}
	if hadPrev && compareLineKeys(key, line, prevKey, prevLine) < 0 {
		return fmt.Errorf("run %d is not sorted", c.idx)
	}
	c.line, c.key, c.live = line, key, true
	if fromCarry {
		c.flip = 1 - c.flip
	}
	return nil
}

// streamCursorLess orders heap entries in exact genome order, then run
// index for deterministic merges.
func streamCursorLess(a, b *streamCursor) bool {
	if c := compareLineKeys(a.key, a.line, b.key, b.line); c != 0 {
		return c < 0
	}
	return a.idx < b.idx
}

// siftDown restores the min-heap property below i.
func siftDown(h []*streamCursor, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && streamCursorLess(h[l], h[min]) {
			min = l
		}
		if r < len(h) && streamCursorLess(h[r], h[min]) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// mergeStreamedRuns k-way merges chunk-fed sorted runs via a binary
// min-heap of per-run cursors, calling emit for each winning line in
// globally ascending order — lines pass through verbatim: no
// []bed.Record, no re-serialization, no full re-sort. emit must not
// retain line past its call (it may sit in a recycled carry buffer).
// charge, when non-nil, is called with each arriving chunk's size —
// the handler's per-chunk MergeBps accounting. When any run is a
// timing-only payload, every source is drained (still charged) and
// sized=true is returned with the total byte count; the merge's emits
// up to that point are void.
//
// A timing-only exchange is all timing-only runs, so the first source's
// first chunk is pulled (and charged) before anything is built: sized,
// and the runs are drained by byte count with no cursor ever allocated
// (~300 B each, fan-in squared over a wave); real, and it seeds cursor 0
// exactly as that cursor's first pull would have.
func mergeStreamedRuns(p *des.Proc, srcs []runSource, charge func(int64),
	emit func(key bed.Key, line []byte) error) (sized bool, total int64, err error) {
	if len(srcs) == 0 {
		return false, 0, nil
	}
	first := streamCursor{src: srcs[0], proc: p, charge: charge}
	switch err := first.nextChunk(); {
	case err == nil:
	case errors.Is(err, io.EOF):
		first.eof = true
	case errors.Is(err, errSizedChunk):
		return drainStreamedSized(p, srcs, first.total, charge)
	default:
		return false, 0, err
	}
	cursors := make([]streamCursor, len(srcs))
	cursors[0] = first
	for i, src := range srcs[1:] {
		cursors[i+1] = streamCursor{src: src, proc: p, charge: charge, idx: i + 1}
	}
	h := make([]*streamCursor, 0, len(srcs))
	for i := range cursors {
		c := &cursors[i]
		if err := c.advance(); err != nil {
			if errors.Is(err, errSizedChunk) { // a sized run after real ones
				return drainStreamedSized(p, srcs, pulled(cursors), charge)
			}
			return false, 0, err
		}
		if c.live {
			h = append(h, c)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for len(h) > 0 {
		c := h[0]
		if err := emit(c.key, c.line); err != nil {
			return false, 0, err
		}
		if err := c.advance(); err != nil {
			if errors.Is(err, errSizedChunk) { // a sized run after real ones
				return drainStreamedSized(p, srcs, pulled(cursors), charge)
			}
			return false, 0, err
		}
		if !c.live {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		if len(h) > 0 {
			siftDown(h, 0)
		}
	}
	return false, pulled(cursors), nil
}

// pulled is the byte count the cursors have taken from their sources.
func pulled(cursors []streamCursor) (total int64) {
	for i := range cursors {
		total += cursors[i].total
	}
	return total
}

// drainStreamedSized consumes the rest of every source purely for byte
// accounting once a sized chunk voids the line merge, so the handler
// charges CPU and transfer for the whole volume. before is what the
// merge had taken from them before.
func drainStreamedSized(p *des.Proc, srcs []runSource, before int64, charge func(int64)) (bool, int64, error) {
	total := before
	for _, src := range srcs {
		for {
			pl, err := src.next(p)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return true, 0, err
			}
			n := pl.Size()
			total += n
			if charge != nil {
				charge(n)
			}
		}
	}
	return true, total, nil
}

// runSplitter is the merge's routing sink for the hierarchy's round 2:
// it appends each emitted line to its boundary partition instead of
// one output. Because the merge emits lines in globally ascending key
// order, every partition is a sorted run by construction — no
// per-partition sort ever runs — and the routing cursor only moves
// right, so boundary search is O(1) amortized instead of a binary
// search per line. Partitions that receive nothing stay nil, matching
// runBuilder.Finish.
type runSplitter struct {
	bounds []Boundary
	parts  [][]byte
	cur    int // partition of the last emitted line
	hint   int // first-allocation size of a partition buffer
}

// newRunSplitter splits into fanout partitions, pre-sizing each for an
// even share of totalBytes (+25% for boundary skew).
func newRunSplitter(fanout int, bounds []Boundary, totalBytes int64) *runSplitter {
	s := &runSplitter{bounds: bounds, parts: make([][]byte, fanout)}
	if fanout > 0 && totalBytes > 0 {
		s.hint = int(totalBytes)/fanout + int(totalBytes)/(4*fanout)
	}
	return s
}

func (s *runSplitter) emit(key bed.Key, line []byte) error {
	// Advance past every boundary <= the emitted key (keys equal to a
	// boundary route right, as in partitionIndex).
	for s.cur < len(s.bounds) &&
		bed.CompareKeyName(s.bounds[s.cur].Key, s.bounds[s.cur].Name, key, chromOf(line)) <= 0 {
		s.cur++
	}
	if s.parts[s.cur] == nil {
		s.parts[s.cur] = make([]byte, 0, s.hint)
	}
	s.parts[s.cur] = append(s.parts[s.cur], line...)
	s.parts[s.cur] = append(s.parts[s.cur], '\n')
	return nil
}
