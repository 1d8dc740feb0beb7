package objectstore

import (
	"errors"
	"fmt"
	"io"
	"strconv"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
)

// Streaming ranged GETs. A Stream delivers an object range as a
// sequence of chunk payloads instead of one buffered block: each chunk
// crosses the service's backend link as its own flow, at most
// streamDepth of them wait transferred and unconsumed, and a consumer
// that does per-chunk work (parse, partition, route) overlaps its CPU
// time with the remaining transfer. The simulation sees genuine
// transfer/compute interleaving where Get/GetRange model one block
// sleep. This is the sda-download shape: chunked range reads behind a
// reader-style interface.
//
// No process produces the chunks. The producing side of a Stream is a
// state machine on the event heap with at most one event pending, and
// step is that event:
//
//	starting   the event GetStream scheduled at the open's instant
//	inFlight   the completion of the chunk's link flow
//	throttled  the end of the RequestLatency a failed continuation costs
//	resuming   the wake a Next or Close scheduled for a full window
//	           (one, however many of them asked)
//	windowFull nothing: the consumer's next Next or Close moves it on
//	finished   nothing, ever: range delivered, failed, or closed
//
// Each of those events sits where an activation of the producer
// process this replaced (PR 21) sat, and a throttled continuation draws
// from the simulation's RNG at the same point, so event counts, fired
// logs and every seeded number downstream are what they were;
// stream_oracle_test.go keeps that process to hold this to. What the
// kernel no longer does for a stream is notice one that was abandoned:
// Service.OpenStreams is the list a driver checks once its run drains.

const (
	// DefaultStreamChunk is the transfer granularity when
	// StreamOptions.ChunkBytes is unset: large enough that per-chunk
	// event overhead is noise, small enough that a mapper's slice spans
	// many chunks.
	DefaultStreamChunk = 4 << 20
	// streamDepth is the prefetch window: chunks fully transferred but
	// not yet consumed. One chunk ahead is classic double buffering;
	// two smooths uneven per-chunk consumer CPU.
	streamDepth = 2
)

// ErrStreamClosed is returned by Next after Close.
var ErrStreamClosed = errors.New("objectstore: stream closed")

// StreamOptions tune a streaming ranged GET.
type StreamOptions struct {
	// ChunkBytes is the transfer granularity (default 4 MiB).
	ChunkBytes int64
}

// producerState names the event a stream's producing side waits for
// (see the table at the top of the file).
type producerState uint8

const (
	starting producerState = iota
	inFlight
	throttled
	windowFull
	resuming
	finished
)

// Stream is one in-flight streaming ranged GET. All methods must be
// called from des process context; like the service itself it needs no
// locking because the kernel runs one process at a time.
//
// A stream keeps what its name is made of, not the name, which only
// OpenStreams builds: that keeps it at 176 bytes, a malloc size class
// (TestStreamSizeClass). No name orders its chunks' link flows; they go
// by when they joined.
type Stream struct {
	svc *Service
	// What OpenStreams names the stream by: its place in the service's
	// open order, its bucket and key, and the offset it was opened at.
	seq     int64
	bkt     *bucket
	key     string
	base    int64
	rng     payload.Payload // the requested range
	size    int64           // its length (open-ended requests resolved)
	chunk   int64           // transfer granularity
	flowCap float64         // effective per-chunk rate cap

	stepFn func() // step, bound once: every event of this stream
	off    int64  // bytes of the range transferred so far

	// ready is the prefetch window, a ring: count chunks transferred and
	// not yet consumed, oldest at head.
	ready       [streamDepth]payload.Payload
	head, count uint8
	state       producerState

	eof    bool // producer delivered the whole range
	closed bool // consumer abandoned the stream
	// slowed is the terminal producer error, a throttled continuation
	// (ErrSlowDown), after ready drains.
	slowed bool

	consumer *des.Proc // parked in Next waiting for a chunk
	opener   *des.Proc // charged for the chunks and the throttles

	// The service's list of streams whose producing side has not
	// finished.
	prevOpen, nextOpen *Stream
}

// GetStream opens a streaming GET of bytes [off, off+n) of an object
// (class B: one request admission regardless of chunk count). A
// negative n streams through the end of the object, like an open-ended
// HTTP range — Size reports the resolved length. Chunks after the
// first model continuations of the same response body: they pay no
// request latency, but each can draw the service's failure rate (a
// throttled continuation surfaces as ErrSlowDown from Next, with
// already-transferred chunks still delivered first). A stream of one
// chunk is request-for-request identical to GetRange.
//
// flowCap caps each chunk flow's rate as it caps Get's body.
//
// A stream must be read to io.EOF or an error, or closed: one abandoned
// with its prefetch window full stays in OpenStreams.
func (s *Service) GetStream(p *des.Proc, bkt, key string, off, n int64, opts StreamOptions, flowCap float64) (*Stream, error) {
	r := s.request(p, openStreams, s.readTB, bkt, 1)
	r.key, r.off, r.length, r.opts, r.flowCap = key, off, n, opts, flowCap
	_, err := r.run()
	st := r.stream
	s.release(r)
	return st, err
}

// openEach opens a stream through the end of each of keys[from:] in
// bkt one after another, as that many GetStreams in a loop would, with
// the caller parked once for the lot (see request.go), and attaches
// stream i to streams[i]. It returns the first element not opened and
// the error that stopped there, or len(keys) and nil.
func (s *Service) openEach(p *des.Proc, bkt string, keys []string, from int, opts StreamOptions, streams []ClientStream, flowCap float64) (int, error) {
	r := s.request(p, openStreams, s.readTB, bkt, len(keys))
	r.i, r.keys, r.streams, r.length, r.opts, r.flowCap = from, keys, streams, -1, opts, flowCap
	next, err := r.run()
	s.release(r)
	return next, err
}

// startStream begins delivering rng, bytes [off, off+n) of bkt/key, for
// p: the open's last act, at the end of its request latency.
func (s *Service) startStream(p *des.Proc, bkt, key string, rng payload.Payload, off, n int64, opts StreamOptions, flowCap float64) *Stream {
	if opts.ChunkBytes <= 0 {
		opts.ChunkBytes = DefaultStreamChunk
	}
	s.streamSeq++
	st := &Stream{
		svc:     s,
		seq:     s.streamSeq,
		bkt:     s.buckets[bkt],
		key:     key,
		base:    off,
		rng:     rng,
		size:    n,
		chunk:   opts.ChunkBytes,
		flowCap: s.connCap(flowCap),
		opener:  p,
	}
	st.stepFn = st.step
	s.linkStream(st)
	s.sim.Schedule(s.sim.Now(), st.stepFn)
	return st
}

// streamName is "objectstore/stream#<seq>/<bkt>/<key>@<off>", built in
// one allocation when OpenStreams lists a stream.
func streamName(seq int64, bkt, key string, off int64) string {
	var buf [96]byte
	b := append(buf[:0], "objectstore/stream#"...)
	b = strconv.AppendInt(b, seq, 10)
	b = append(b, '/')
	b = append(b, bkt...)
	b = append(b, '/')
	b = append(b, key...)
	b = append(b, '@')
	b = strconv.AppendInt(b, off, 10)
	return string(b)
}

// step is the producing side's one event. It first takes in what the
// event it waited for means, then moves on to the next chunk: the range
// goes over the link chunk by chunk, each chunk its own flow, stopping
// whenever the prefetch window is full.
func (st *Stream) step() {
	s := st.svc
	switch st.state {
	case inFlight:
		n := st.chunkLen()
		// The chunk fully traversed the backend link even when the
		// consumer closed mid-flight: egress is counted regardless.
		s.metrics.Charge(st.opener, func(m *Metrics) { m.BytesOut += n })
		if st.closed { // consumer gave up while this chunk was in flight
			st.finish()
			return
		}
		pl := st.rng
		if n != st.size { // else one chunk is the whole range
			var err error
			if pl, err = st.rng.Slice(st.off, n); err != nil {
				// The range was validated at open and every chunk lies in
				// it: a failure here is the store's own fault, and the
				// kernel reports the panic as the run's error.
				panic(fmt.Sprintf("objectstore: chunk of stream #%d outside its range: %v", st.seq, err))
			}
		}
		st.off += n
		st.ready[(st.head+st.count)%streamDepth] = pl
		st.count++
		st.wakeConsumer()
		if st.count >= streamDepth {
			st.state = windowFull
			return
		}
	case throttled:
		s.metrics.Charge(st.opener, countThrottled)
		st.slowed = true
		st.wakeConsumer()
		st.finish()
		return
	}
	if st.off >= st.size {
		st.eof = true
		st.wakeConsumer()
		st.finish()
		return
	}
	if st.closed {
		st.finish()
		return
	}
	// Continuations after the first chunk can be throttled like any
	// request (the open request already drew once at admission).
	if st.off > 0 && s.drawFailure() {
		st.state = throttled
		s.sim.After(s.cfg.RequestLatency, st.stepFn)
		return
	}
	st.state = inFlight
	s.link.TransferAsync(st.chunkLen(), st.flowCap, st.stepFn)
}

// chunkLen is the length of the chunk that starts at off: the chunk on
// the link in state inFlight.
func (st *Stream) chunkLen() int64 { return min(st.chunk, st.size-st.off) }

// finish retires the producing side: no event of this stream is
// pending and none will be scheduled.
func (st *Stream) finish() {
	st.state = finished
	st.rng = nil
	st.svc.unlinkStream(st)
}

func (st *Stream) wakeConsumer() {
	if st.consumer != nil {
		st.consumer.Wake()
	}
}

// reopen restarts a producing side stopped at a full window: one event,
// however many calls ask before it fires.
func (st *Stream) reopen() {
	if st.state == windowFull {
		st.state = resuming
		st.svc.sim.Schedule(st.svc.sim.Now(), st.stepFn)
	}
}

// Size reports the resolved length of the streamed range.
func (st *Stream) Size() int64 { return st.size }

// Next returns the next chunk, blocking p until one has been
// transferred. io.EOF signals the end of the range. A producer error
// (a throttled continuation) is delivered only after every chunk
// transferred before it has been consumed, so callers can resume from
// the first undelivered byte.
func (st *Stream) Next(p *des.Proc) (payload.Payload, error) {
	if st.closed {
		return nil, ErrStreamClosed
	}
	for {
		if pl, wait, err := st.poll(p); !wait {
			return pl, err
		}
		p.Park()
	}
}

// poll is Next without the park: wait, and p is woken when there is.
func (st *Stream) poll(p *des.Proc) (pl payload.Payload, wait bool, err error) {
	st.consumer = nil
	switch {
	case st.count > 0:
		pl = st.ready[st.head]
		st.ready[st.head] = nil
		st.head = (st.head + 1) % streamDepth
		st.count--
		st.reopen()
		return pl, false, nil
	case st.slowed:
		return nil, false, ErrSlowDown
	case st.eof:
		return nil, false, io.EOF
	}
	st.consumer = p
	return nil, true, nil
}

// Close abandons the stream: the producing side stops after any chunk
// still in flight. Closing a drained or failed stream is a no-op.
// Always safe to defer.
func (st *Stream) Close() {
	st.closed = true
	st.ready = [streamDepth]payload.Payload{}
	st.count = 0
	st.reopen()
}

// ClientStream is the Client-side resumable wrapper over Stream:
// chunk-level ErrSlowDown — a throttled continuation mid-transfer —
// re-opens the underlying stream at the first undelivered byte with
// exponential backoff. The whole stream shares one retry budget of
// MaxRetries, covering both open admissions and continuations, so the
// policy composes with the client's buffered-path retry semantics.
type ClientStream struct {
	c        *Client
	bkt, key string
	off, n   int64 // remaining undelivered range (n < 0: through object end)
	opts     StreamOptions
	cur      *Stream
	retries  int // consecutive throttles: the rung of the backoff ladder
	closed   bool
}

// GetStream opens a resumable streaming GET of [off, off+n) with
// retry; a negative n streams through the end of the object.
func (c *Client) GetStream(p *des.Proc, bkt, key string, off, n int64, opts StreamOptions) (*ClientStream, error) {
	cs := &ClientStream{c: c, bkt: bkt, key: key, off: off, n: n, opts: opts}
	if err := cs.ensure(p); err != nil {
		return nil, err
	}
	return cs, nil
}

// GetStreams opens a resumable stream through the end of every one of
// keys, strictly one after another like GetStream in a loop, but as one
// request that parks p once (see request.go). Each stream keeps its own
// retry budget. All the streams are one allocation: callers take
// &streams[i]. On error it returns the streams opened so far, for the
// caller to close; the key that failed is keys[len(streams)].
func (c *Client) GetStreams(p *des.Proc, bkt string, keys []string, opts StreamOptions) ([]ClientStream, error) {
	streams := make([]ClientStream, len(keys))
	for i, key := range keys {
		streams[i] = ClientStream{c: c, bkt: bkt, key: key, n: -1, opts: opts}
	}
	for i := 0; i < len(keys); {
		var err error
		i, err = c.svc.openEach(p, bkt, keys, i, opts, streams, c.FlowCap)
		if errors.Is(err, ErrSlowDown) {
			err = c.backOff(p, &streams[i].retries, err)
		}
		if err != nil {
			return streams[:i], err
		}
	}
	return streams, nil
}

// maxRetries returns the client's effective retry bound.
func (c *Client) maxRetries() int {
	if c.MaxRetries > 0 {
		return c.MaxRetries
	}
	return 6
}

// attach makes st the stream's current underlying stream.
func (cs *ClientStream) attach(st *Stream) {
	cs.cur = st
	if cs.n < 0 { // open-ended range: pin the resolved length for resumes
		cs.n = st.Size()
	}
}

// Remaining reports the bytes of the range not yet delivered. Once the
// stream is open and before its first chunk, that is the range's whole
// length, an open-ended range's as attach pinned it.
func (cs *ClientStream) Remaining() int64 { return cs.n }

// ensure opens the underlying stream at the current resume offset,
// retrying throttled admissions against the shared budget.
func (cs *ClientStream) ensure(p *des.Proc) error {
	for cs.cur == nil {
		st, err := cs.c.svc.GetStream(p, cs.bkt, cs.key, cs.off, cs.n, cs.opts, cs.c.FlowCap)
		if err == nil {
			cs.attach(st)
			return nil
		}
		if !errors.Is(err, ErrSlowDown) {
			return err
		}
		if err := cs.c.backOff(p, &cs.retries, err); err != nil {
			return err
		}
	}
	return nil
}

// Next returns the next chunk, transparently resuming after throttled
// continuations. io.EOF signals the end of the range, ErrStreamClosed
// a call after Close (which issues no request).
func (cs *ClientStream) Next(p *des.Proc) (payload.Payload, error) {
	if cs.closed {
		return nil, ErrStreamClosed
	}
	for {
		if err := cs.ensure(p); err != nil {
			return nil, err
		}
		pl, err := cs.took(cs.cur.Next(p))
		if !errors.Is(err, ErrSlowDown) {
			return pl, err
		}
		cs.cur = nil // resume at cs.off after backoff
		if err := cs.c.backOff(p, &cs.retries, err); err != nil {
			return nil, err
		}
	}
}

// Poll is Next for a chain of callbacks working for p (des.Proc.Await):
// where Next would park p it returns wait, p's wake arranged as Next's;
// where Next would back off and re-open, ErrSlowDown for p's Next.
func (cs *ClientStream) Poll(p *des.Proc) (payload.Payload, bool, error) {
	switch {
	case cs.closed:
		return nil, false, ErrStreamClosed
	case cs.cur == nil: // a re-open that failed: Next tries again
		return nil, false, ErrSlowDown
	}
	pl, wait, err := cs.cur.poll(p)
	pl, err = cs.took(pl, err)
	return pl, wait, err
}

// took moves the resume point past a delivered chunk.
func (cs *ClientStream) took(pl payload.Payload, err error) (payload.Payload, error) {
	if pl != nil {
		cs.off += pl.Size()
		cs.n -= pl.Size()
		// A delivered chunk proves the store recovered: restart the
		// backoff ladder and the MaxRetries budget so a later, unrelated
		// throttle doesn't inherit this incident's doubled delay or
		// exhausted count. The budget bounds consecutive failures per
		// incident — a long stream crossing a transient brownout window
		// makes progress between throttles and must not die from their
		// lifetime total.
		cs.retries = 0
	}
	return pl, err
}

// Close abandons the stream.
func (cs *ClientStream) Close() {
	if cs.cur != nil {
		cs.cur.Close()
		cs.cur = nil
	}
	cs.closed = true
}
