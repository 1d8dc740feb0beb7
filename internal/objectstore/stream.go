package objectstore

import (
	"errors"
	"fmt"
	"io"
	"strconv"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
)

// Streaming ranged GETs. A ClientStream delivers an object range as a
// sequence of chunk payloads instead of one buffered block: each chunk
// crosses the service's backend link as its own flow, at most
// streamDepth of them wait transferred and unconsumed, and a consumer
// that does per-chunk work (parse, partition, route) overlaps its CPU
// time with the remaining transfer. The simulation sees genuine
// transfer/compute interleaving where Get/GetRange model one block
// sleep. This is the sda-download shape: chunked range reads behind a
// reader-style interface.
//
// A stream is one object, and its reader owns it: Client.GetStream
// allocates one, and Client.GetStreams opens a list of them into storage
// its caller passes, which the caller may open again once Reclaim has
// given it back. The range, the prefetch window, the producing side and
// the retry budget all live in it. No process produces the chunks. The
// producing side is a state machine on the event heap with at most one
// event pending, and step is that event:
//
//	unopened   nothing: no range is open yet, or the reader's Next took
//	           a throttled continuation and re-opens the rest
//	starting   the event the open scheduled at its own instant
//	inFlight   the completion of the chunk's link flow
//	throttled  the end of the RequestLatency a failed continuation costs
//	resuming   the wake a Next or Close scheduled for a full window
//	           (one, however many of them asked)
//	windowFull nothing: the consumer's next Next or Close moves it on
//	finished   nothing, ever: range delivered, failed, or closed
//
// A throttled continuation finishes the producing side and reaches the
// reader as ErrSlowDown once the chunks before it are consumed. Next
// then backs off and opens the rest of the range, from base+off, into
// the same storage. That re-use is sound only because a finished
// producer has no event pending; startStream panics on storage whose
// producer has not finished. Storage a reader closed is re-used the same
// way, for another open by another reader, perhaps of another service:
// Reclaim gives it back only when no producing side runs, and keeps the
// step each stream bound at its first open, so a stream binds it once
// for the life of its storage.
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
	unopened producerState = iota
	starting
	inFlight
	throttled
	windowFull
	resuming
	finished
)

// ClientStream is a streaming ranged GET, resumable: a chunk-level
// ErrSlowDown (a throttled continuation mid-transfer) re-opens the range
// at the first undelivered byte with exponential backoff. The whole
// stream shares one retry budget of MaxRetries, covering both open
// admissions and continuations, so the policy composes with the
// client's buffered-path retry semantics. All methods must be called
// from des process context; like the service itself it needs no locking
// because the kernel runs one process at a time.
//
// A stream keeps what its name is made of, not the name, which only
// OpenStreams builds, and reaches the service and its chunks' flow cap
// through its client: that keeps it at 176 bytes, a malloc size class
// (TestStreamSizeClass). No name orders its chunks' link flows; they go
// by when they joined.
//
// A ClientStream is a value its reader may keep and open again: its zero
// value is storage GetStreams opens into, and Reclaim returns it to that
// state, its bound step aside.
type ClientStream struct {
	c *Client
	// What OpenStreams names the stream by: its place in the service's
	// open order, its bucket and key, and the offset it was opened at.
	seq   int64
	bkt   *bucket
	key   string
	base  int64
	rng   payload.Payload // what chunks are cut from (rangeOf)
	size  int64           // the range's length (open-ended requests resolved)
	chunk int64           // transfer granularity

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
	// retries counts consecutive throttles: the rung of the backoff
	// ladder.
	retries int

	consumer *des.Proc // parked in Next waiting for a chunk
	opener   *des.Proc // charged for the chunks and the throttles

	// The service's list of streams whose producing side has not
	// finished.
	prevOpen, nextOpen *ClientStream
}

// GetStream opens a resumable streaming GET of bytes [off, off+n) of an
// object (class B: one request admission regardless of chunk count),
// retrying throttled admissions. A negative n streams through the end
// of the object, like an open-ended HTTP range. Chunks after the first
// model continuations of the same response body: they pay no request
// latency, but each can draw the service's failure rate; Next resumes
// after such a throttle, having delivered the chunks before it. A
// stream of one chunk is request-for-request identical to GetRange.
//
// The client's FlowCap caps each chunk flow's rate as it caps Get's
// body.
//
// A stream must be read to io.EOF or an error, or closed: one abandoned
// with its prefetch window full stays in OpenStreams.
func (c *Client) GetStream(p *des.Proc, bkt, key string, off, n int64, opts StreamOptions) (*ClientStream, error) {
	st := &ClientStream{c: c}
	if err := st.openRetrying(p, bkt, key, off, n, opts); err != nil {
		return nil, err
	}
	return st, nil
}

// GetStreams opens a resumable stream of bytes [off, off+n) of every
// one of keys (a negative n: through the end), keys[i] into streams[i],
// strictly one after another like GetStream in a loop, but as one
// request that parks p once (see request.go). Each stream keeps its own
// retry budget. The storage is the caller's, at least as long as keys:
// zero values, or streams that Reclaim gave back. Each element is first
// reset to a stream of c's, keeping the step it bound at an earlier
// open, so storage opened again allocates nothing; one whose producing
// side still runs is left as it is, and its open panics. It returns how
// many streams it opened, the first k elements; on error the caller
// closes those, and the key that failed is keys[k].
func (c *Client) GetStreams(p *des.Proc, streams []ClientStream, bkt string, keys []string, off, n int64, opts StreamOptions) (int, error) {
	streams = streams[:len(keys)]
	for i := range streams {
		streams[i].reset(c)
	}
	for i := 0; i < len(keys); {
		var err error
		i, err = c.svc.openEach(p, bkt, keys, i, off, n, opts, streams)
		if errors.Is(err, ErrSlowDown) {
			err = c.backOff(p, &streams[i].retries, err)
		}
		if err != nil {
			return i, err
		}
	}
	return len(keys), nil
}

// Reclaim readies streams their reader has closed or read through for
// another GetStreams: it resets each to the zero value but for the step
// it bound, so the storage keeps no client, service, bucket or process,
// and reports true. While the producing side of any of them still runs
// (a chunk in flight, a throttle or a resume pending, a full window) it
// changes nothing and reports false: that storage is the kernel's until
// its event fires, and only the collector may take it back.
func Reclaim(streams []ClientStream) bool {
	for i := range streams {
		if streams[i].running() {
			return false
		}
	}
	for i := range streams {
		streams[i].reset(nil)
	}
	return true
}

// running reports that st's producing side has an event pending or may
// schedule one: it is on its service's list of open streams.
func (st *ClientStream) running() bool { return st.state != unopened && st.state != finished }

// reset readies st for an open by c, keeping its bound step. A stream
// whose producing side runs is left as it is, for startStream to refuse.
func (st *ClientStream) reset(c *Client) {
	if !st.running() {
		*st = ClientStream{c: c, stepFn: st.stepFn}
	}
}

// openRetrying opens bytes [off, off+n) of bkt/key into st, backing off
// throttled admissions against the stream's retry budget.
func (st *ClientStream) openRetrying(p *des.Proc, bkt, key string, off, n int64, opts StreamOptions) error {
	for {
		err := st.open(p, bkt, key, off, n, opts)
		if !errors.Is(err, ErrSlowDown) {
			return err
		}
		if err := st.c.backOff(p, &st.retries, err); err != nil {
			return err
		}
	}
}

// open is one admission of a stream of bytes [off, off+n) of bkt/key
// into st (class B), with p parked through it (see request.go).
func (st *ClientStream) open(p *des.Proc, bkt, key string, off, n int64, opts StreamOptions) error {
	s := st.c.svc
	r := s.request(p, openStreams, s.readTB, bkt, 1)
	r.key, r.off, r.length, r.opts, r.stream = key, off, n, opts, st
	_, err := r.run()
	r.release()
	return err
}

// openEach opens a stream of bytes [off, off+n) of each of keys[from:]
// in bkt into streams[i], one after another, as that many opens in a
// loop would, with the caller parked once for the lot (see request.go).
// It returns the first element not opened and the error that stopped
// there, or len(keys) and nil.
func (s *Service) openEach(p *des.Proc, bkt string, keys []string, from int, off, n int64, opts StreamOptions, streams []ClientStream) (int, error) {
	r := s.request(p, openStreams, s.readTB, bkt, len(keys))
	r.i, r.keys, r.streams, r.off, r.length, r.opts = from, keys, streams, off, n, opts
	next, err := r.run()
	r.release()
	return next, err
}

// startStream begins delivering bytes [off, off+n) of obj, the object
// under key in bkt, into st for p: the open's last act, at the end of
// its request latency, once the range is checked. st is storage
// GetStreams reset or a stream whose Next took a throttled continuation;
// either way no event of it can be pending.
func (s *Service) startStream(st *ClientStream, p *des.Proc, bkt *bucket, key string, obj payload.Payload, off, n int64, opts StreamOptions) {
	if st.state != unopened || st.prevOpen != nil || s.openHead == st {
		panic(fmt.Sprintf("objectstore: stream #%d opened again while its producing side runs", st.seq))
	}
	if opts.ChunkBytes <= 0 {
		opts.ChunkBytes = DefaultStreamChunk
	}
	s.streamSeq++
	stepFn := st.stepFn
	if stepFn == nil {
		stepFn = st.step
	}
	*st = ClientStream{
		c:       st.c,
		seq:     s.streamSeq,
		bkt:     bkt,
		key:     key,
		base:    off,
		rng:     rangeOf(obj, off, n, opts.ChunkBytes),
		size:    n,
		chunk:   opts.ChunkBytes,
		stepFn:  stepFn,
		state:   starting,
		retries: st.retries,
		opener:  p,
	}
	s.linkStream(st)
	s.sim.Schedule(s.sim.Now(), st.stepFn)
}

// rangeOf is what a stream of the checked range [off, off+n) of obj
// cuts its chunks from (rng): the range itself, or, for a byte-less range
// of more than one chunk, the payload of one full chunk, boxed once here
// and handed out for every full chunk (cut).
func rangeOf(obj payload.Payload, off, n, chunk int64) payload.Payload {
	if _, real := obj.Bytes(); !real && n > chunk {
		return payload.Sized(chunk)
	}
	if off == 0 && n == obj.Size() { // the whole object is its own range
		return obj
	}
	rng, _ := obj.Slice(off, n) // the open checked the range
	return rng
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
func (st *ClientStream) step() {
	s := st.c.svc
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
		pl, err := st.cut(n)
		if err != nil {
			// The range was validated at open and every chunk lies in
			// it: a failure here is the store's own fault, and the
			// kernel reports the panic as the run's error.
			panic(fmt.Sprintf("objectstore: chunk of stream #%d outside its range: %v", st.seq, err))
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
	s.link.TransferAsync(st.chunkLen(), s.connCap(st.c.FlowCap), st.stepFn)
}

// cut is the chunk of n bytes at off. rng is handed out as it is when
// the chunk is all of it: a range of one chunk, or a full chunk of a
// byte-less range of several, whose rng is that chunk's payload (rangeOf)
// and is cut only for the short tail. A real range is sliced at off.
func (st *ClientStream) cut(n int64) (payload.Payload, error) {
	switch {
	case n == st.rng.Size():
		return st.rng, nil
	case st.rng.Size() == st.size:
		return st.rng.Slice(st.off, n)
	}
	return st.rng.Slice(0, n)
}

// chunkLen is the length of the chunk that starts at off: the chunk on
// the link in state inFlight.
func (st *ClientStream) chunkLen() int64 { return min(st.chunk, st.size-st.off) }

// finish retires the producing side: no event of this stream is
// pending and none will be scheduled.
func (st *ClientStream) finish() {
	st.state = finished
	st.rng = nil
	st.c.svc.unlinkStream(st)
}

func (st *ClientStream) wakeConsumer() {
	if st.consumer != nil {
		st.consumer.Wake()
	}
}

// resume restarts a producing side stopped at a full window: one event,
// however many calls ask before it fires.
func (st *ClientStream) resume() {
	if st.state == windowFull {
		st.state = resuming
		st.c.svc.sim.Schedule(st.c.svc.sim.Now(), st.stepFn)
	}
}

// Remaining reports the bytes of the range not yet delivered: those in
// the prefetch window and those not yet transferred. Once the stream is
// open and before its first chunk, that is the range's whole length, an
// open-ended range's as the open resolved it.
func (st *ClientStream) Remaining() int64 {
	n := st.size - st.off
	for i := range st.count {
		n += st.ready[(st.head+i)%streamDepth].Size()
	}
	return n
}

// Next returns the next chunk, blocking p until one has been
// transferred and transparently resuming after throttled continuations.
// io.EOF signals the end of the range, ErrStreamClosed a call after
// Close (which issues no request).
func (st *ClientStream) Next(p *des.Proc) (payload.Payload, error) {
	if st.closed {
		return nil, ErrStreamClosed
	}
	for {
		if st.state == unopened { // resume at the first undelivered byte
			err := st.openRetrying(p, st.bkt.name, st.key, st.base+st.off, st.size-st.off, StreamOptions{ChunkBytes: st.chunk})
			if err != nil {
				return nil, err
			}
		}
		pl, wait, err := st.poll(p)
		if wait {
			p.Park()
			continue
		}
		if !errors.Is(err, ErrSlowDown) {
			return pl, err
		}
		// slowed is only set as the producing side finishes: nothing of
		// it is pending, and the storage can take the next open.
		st.state = unopened
		if err := st.c.backOff(p, &st.retries, err); err != nil {
			return nil, err
		}
	}
}

// Poll is Next for a chain of callbacks working for p (des.Proc.Await):
// where Next would park p it returns wait, p's wake arranged as Next's;
// where Next would back off and re-open, ErrSlowDown for p's Next.
func (st *ClientStream) Poll(p *des.Proc) (payload.Payload, bool, error) {
	switch {
	case st.closed:
		return nil, false, ErrStreamClosed
	case st.state == unopened: // a re-open that failed: Next tries again
		return nil, false, ErrSlowDown
	}
	return st.poll(p)
}

// poll takes the oldest chunk of the window, or says why there is none:
// wait, and p is woken when there is.
func (st *ClientStream) poll(p *des.Proc) (pl payload.Payload, wait bool, err error) {
	st.consumer = nil
	switch {
	case st.count > 0:
		pl = st.ready[st.head]
		st.ready[st.head] = nil
		st.head = (st.head + 1) % streamDepth
		st.count--
		st.resume()
		// A delivered chunk proves the store recovered: restart the
		// backoff ladder and the MaxRetries budget so a later, unrelated
		// throttle doesn't inherit this incident's doubled delay or
		// exhausted count. The budget bounds consecutive failures per
		// incident — a long stream crossing a transient brownout window
		// makes progress between throttles and must not die from their
		// lifetime total.
		st.retries = 0
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
func (st *ClientStream) Close() {
	st.closed = true
	st.ready = [streamDepth]payload.Payload{}
	st.count = 0
	st.resume()
}
