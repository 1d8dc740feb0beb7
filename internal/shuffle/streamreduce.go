package shuffle

// The streaming reduce path: instead of buffering every mapper's run
// before the k-way merge starts, each run arrives as a stream of chunks
// (objectstore.Client.GetStream) and the merge begins as soon as every
// run's head chunk is in. Every run is read by a lineReader, which parks
// on the stream's Next at chunk boundaries and carries a partial line
// across them (the map slice is read by the same type), so transfer-in,
// merge CPU — charged per chunk at MergeBps as it arrives — and the
// multipart transfer-out behind objectstore.Client.PutStream all overlap:
// the reduce leg costs max(transfer-in, mergeCPU, transfer-out) instead
// of their sum.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

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

// errSizedChunk stops a lineReader at a timing-only chunk: there are no
// lines to hand out, only bytes to drain and charge.
var errSizedChunk = errors.New("shuffle: sized chunk in streamed run")

// runSource is a sequence of chunk payloads: a sorted run for the merge,
// or a map slice (*objectstore.ClientStream is one). Next returns io.EOF
// when it is exhausted; Close releases it (always safe, also after
// exhaustion).
type runSource interface {
	Next(p *des.Proc) (payload.Payload, error)
	Close()
}

// payloadSource feeds an already-resident payload chunk by chunk — the
// cache's runs arrive via memcache Get (no streaming API), but chunked
// consumption still spreads the merge's CPU charges so the output
// writer's part uploads overlap them.
type payloadSource struct {
	pl    payload.Payload
	off   int64
	chunk int64
}

func (s *payloadSource) Next(p *des.Proc) (payload.Payload, error) {
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

func (s *payloadSource) Close() {}

// cpuClock prices the bytes a function reads (*faas.Ctx).
type cpuClock interface {
	CPUTime(n int64, bps float64) (time.Duration, bool)
}

// meter is what the readers of one function attempt share: its process,
// and the CPU of the first left bytes they pull, at bps on clock. It
// runs the attempt's timing-only drain as one chain of callbacks with the
// process parked once (des.Proc.Await), each of the chain's waits one a
// loop over Next and ComputeBytes slept through, armed as the process's
// own wake. A speculative twin of the task drains with a meter of its own.
type meter struct {
	p      *des.Proc
	clock  cpuClock
	bps    float64
	left   int64
	src    runSource   // being drained, nil once every source is
	rest   []runSource // to drain after it
	pulled int64
	stepFn func()
}

// cost counts n pulled bytes and returns the CPU time they take, if any.
func (m *meter) cost(n int64) (time.Duration, bool) {
	n = min(n, m.left)
	m.left -= n
	return m.clock.CPUTime(n, m.bps)
}

// drain pulls what is left of src, then of each of rest, for the bytes
// and charges alone once a timing-only chunk has shown there are no lines,
// and returns the bytes pulled. The chain hands a source back to the
// process only for Next to back off and re-open after a throttle.
func (m *meter) drain(src runSource, rest []runSource) (int64, error) {
	m.src, m.rest, m.pulled = src, rest, 0
	if m.stepFn == nil {
		m.stepFn = m.step
	}
	for {
		if m.p.Await(m.stepFn); m.src == nil {
			return m.pulled, nil
		}
		r := lineReader{src: m.src, m: m}
		if err := r.pull(); err != nil && !errors.Is(err, errSizedChunk) {
			return m.pulled, err
		}
		m.pulled += r.pos
	}
}

// step is the chain, run at once and at every wake: it drains until it
// arms a wait (a source with nothing yet, a chunk's CPU) as the process's
// wake, or resumes the process when done or when src needs it.
func (m *meter) step() {
	for m.src != nil {
		var pl payload.Payload
		var wait bool
		var err error
		// A source that can keep its reader waiting has a Poll, its Next
		// for a chain (objectstore.ClientStream's); no other parks in Next.
		if s, ok := m.src.(interface {
			Poll(*des.Proc) (payload.Payload, bool, error)
		}); ok {
			pl, wait, err = s.Poll(m.p)
		} else {
			pl, err = m.src.Next(m.p)
		}
		switch {
		case wait:
			return
		case errors.Is(err, io.EOF):
			m.src = nil
			if len(m.rest) > 0 {
				m.src, m.rest = m.rest[0], m.rest[1:]
			}
		case err != nil:
			m.p.Resume()
			return
		default:
			m.pulled += pl.Size()
			if d, ok := m.cost(pl.Size()); ok {
				m.p.WakeAfter(d)
				return
			}
		}
	}
	m.p.Resume()
}

// lineReader splits a runSource into lines, the one place a line is
// carried across a chunk boundary: the map slice and every merged run
// are read with it. It pulls a chunk only when the line asked for needs
// one and charges each chunk as it arrives (the handler's per-chunk CPU,
// on its meter); handing out lines costs no virtual time, so its pulls
// and charges fall where a chunk-at-a-time loop's do. A line inside a
// chunk is a view into the chunk's payload bytes (which outlive the
// chunk); a line spanning chunks is assembled in one of two alternating
// carry buffers, and only a non-blank one claims its buffer, so the last
// non-blank line handed out — the merge's previous line, possibly itself
// carried — stays intact while the next one assembles.
type lineReader struct {
	src runSource
	m   *meter
	// pos is where the next pulled byte sits: the source's offset in its
	// object (0 for a run) plus every byte pulled so far.
	pos int64

	chunk []byte    // unconsumed tail of the current chunk
	carry [2][]byte // alternating partial-line buffers
	flip  int       // carry[flip] may hold the last non-blank line; 1-flip assembles
	eof   bool
	// keep, when above 0, has the reader keep every real chunk it pulls
	// in kept, reserved at the first for keep chunks, so that span can
	// join them into the bytes read (a map slice's runBuilder copies its
	// lines from there).
	keep int
	kept []payload.Payload
}

// pull takes the next chunk off the source and charges it. It sets eof
// at the source's end and returns errSizedChunk on a timing-only chunk.
func (r *lineReader) pull() error {
	pl, err := r.src.Next(r.m.p)
	if errors.Is(err, io.EOF) {
		r.eof = true
		return nil
	}
	if err != nil {
		return err
	}
	r.pos += pl.Size()
	if d, ok := r.m.cost(pl.Size()); ok {
		r.m.p.Sleep(d)
	}
	raw, real := pl.Bytes()
	if !real {
		return errSizedChunk
	}
	if r.keep > 0 {
		if r.kept == nil {
			r.kept = make([]payload.Payload, 0, r.keep)
		}
		r.kept = append(r.kept, pl)
	}
	r.chunk = raw
	return nil
}

// span returns the bytes of the chunks the reader kept, joined: one view
// of the object read when they sit side by side in it, as a stored
// object's chunks do, and a copy otherwise.
func (r *lineReader) span() []byte {
	b, _ := payload.Concat(r.kept...).Bytes()
	return b
}

// next hands out the next line, without its newline, and the offset it
// starts at; tail marks an unterminated last line. Blank lines are handed
// out too, what they mean is the caller's. It returns io.EOF once the
// source is exhausted and errSizedChunk on a timing-only chunk.
func (r *lineReader) next() (line []byte, start int64, tail bool, err error) {
	carry := r.carry[1-r.flip][:0]
	for {
		if nl := bytes.IndexByte(r.chunk, '\n'); nl >= 0 {
			start = r.pos - int64(len(r.chunk)) - int64(len(carry))
			line, r.chunk = r.chunk[:nl], r.chunk[nl+1:]
			if len(carry) == 0 {
				return line, start, false, nil
			}
			return r.claim(append(carry, line...)), start, false, nil
		}
		carry = append(carry, r.chunk...)
		r.chunk = nil
		if r.eof {
			if len(carry) == 0 {
				return nil, 0, false, io.EOF
			}
			return r.claim(carry), r.pos - int64(len(carry)), true, nil
		}
		if err := r.pull(); err != nil {
			return nil, 0, false, err
		}
	}
}

// claim keeps a carried line's buffer, grown, for the reader; a non-blank
// line holds it until the line after next has been assembled.
func (r *lineReader) claim(line []byte) []byte {
	r.carry[1-r.flip] = line
	if !bed.IsBlank(line) {
		r.flip = 1 - r.flip
	}
	return line
}

// streamCursor is one run in the merge: a reader, the key of its current
// line, and the check that the run stays sorted across chunk boundaries
// (the mappers' invariant — a violation here means a corrupted scratch
// object, and silently merging it would emit unsorted output).
type streamCursor struct {
	r    lineReader
	line []byte
	key  bed.Key
	idx  int
	live bool
}

// advance loads the cursor's next non-blank line.
func (c *streamCursor) advance() error {
	prevKey, prevLine, hadPrev := c.key, c.line, c.live
	c.live = false
	for {
		line, _, _, err := c.r.next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		if bed.IsBlank(line) {
			continue
		}
		key, err := bed.KeyOfLine(line)
		if err != nil {
			return fmt.Errorf("run %d: %w", c.idx, err)
		}
		if hadPrev && compareLineKeys(key, line, prevKey, prevLine) < 0 {
			return fmt.Errorf("run %d is not sorted", c.idx)
		}
		c.line, c.key, c.live = line, key, true
		return nil
	}
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
// m charges each arriving chunk — the handler's per-chunk MergeBps
// accounting. When any run is a timing-only payload, every source is
// drained (still charged) and sized=true is returned with the total
// byte count; the merge's emits up to that point are void.
//
// A timing-only exchange is all timing-only runs, so the first source's
// first chunk is pulled (and charged) before anything is built: sized,
// and the runs are drained by byte count with no cursor ever allocated
// (~300 B each, fan-in squared over a wave); real, and it seeds cursor 0
// exactly as that cursor's first pull would have.
func mergeStreamedRuns(m *meter, srcs []runSource,
	emit func(key bed.Key, line []byte) error) (sized bool, total int64, err error) {
	if len(srcs) == 0 {
		return false, 0, nil
	}
	first := lineReader{src: srcs[0], m: m}
	if err := first.pull(); errors.Is(err, errSizedChunk) {
		return drainRuns(m, srcs, []streamCursor{{r: first}})
	} else if err != nil {
		return false, 0, err
	}
	cursors := make([]streamCursor, len(srcs))
	cursors[0].r = first
	for i, src := range srcs[1:] {
		cursors[i+1] = streamCursor{r: lineReader{src: src, m: m}, idx: i + 1}
	}
	h := make([]*streamCursor, 0, len(srcs))
	for i := range cursors {
		c := &cursors[i]
		if err := c.advance(); err != nil {
			// A sized run after real or empty ones: a timing-only split
			// smaller than its fan-out writes Sized(0) runs, which read
			// as empty.
			if errors.Is(err, errSizedChunk) {
				return drainRuns(m, srcs, cursors)
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
				return drainRuns(m, srcs, cursors)
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
	for i := range cursors {
		total += cursors[i].r.pos
	}
	return false, total, nil
}

// drainRuns consumes the rest of every source purely for byte
// accounting once a sized chunk voids the line merge, so the handler
// charges CPU and transfer for the whole volume. started are the cursors
// the merge had built, whose readers have counted what they pulled.
func drainRuns(m *meter, srcs []runSource, started []streamCursor) (bool, int64, error) {
	total, err := m.drain(srcs[0], srcs[1:])
	if err != nil {
		return true, 0, err
	}
	for i := range started {
		total += started[i].r.pos
	}
	return true, total, nil
}

// runSplitter is the merge's sink for the hierarchy's round 2: the
// emitted lines go into one buffer, cut into one run per reducer where a
// boundary is passed, by runBuilder.finish's rule (runOf). Because the merge emits lines in globally
// ascending key order, every run is sorted by construction — nothing is
// re-sorted — and the cut only moves forward. The buffer, one
// reservation of the merge's input bytes, and the runs are made at the
// first line, so a timing-only merge makes neither.
type runSplitter struct {
	bounds []boundary
	fanOut int
	size   int64
	buf    []byte
	runs   [][]byte
	cur    int // run of the last emitted line
	start  int // where run cur starts in buf
}

func newRunSplitter(fanOut int, bounds []boundary, size int64) *runSplitter {
	return &runSplitter{bounds: bounds, fanOut: fanOut, size: size}
}

func (s *runSplitter) emit(key bed.Key, line []byte) error {
	if s.runs == nil {
		s.buf, s.runs = make([]byte, 0, s.size), make([][]byte, s.fanOut)
	}
	if next := runOf(s.bounds, s.cur, key, line); next != s.cur {
		s.runs[s.cur], s.start, s.cur = cut(s.buf, s.start, len(s.buf)), len(s.buf), next
	}
	s.buf = append(append(s.buf, line...), '\n')
	return nil
}

// finish returns the runs, each buf[a:b:b] and nil for a reducer that
// got no line; a merge that emitted nothing returns a full fan-out of
// empty runs, as readSlice does.
func (s *runSplitter) finish() [][]byte {
	if s.runs == nil {
		return make([][]byte, s.fanOut)
	}
	s.runs[s.cur] = cut(s.buf, s.start, len(s.buf))
	return s.runs
}
