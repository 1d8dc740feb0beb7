package objectstore

import (
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
)

// Streaming ranged GETs. A Stream delivers an object range as a
// sequence of chunk payloads instead of one buffered block: a producer
// process transfers each chunk over the service's backend link as its
// own flow and parks behind a small prefetch window, so a consumer
// that does per-chunk work (parse, partition, route) overlaps its CPU
// time with the remaining transfer — the simulation sees genuine
// transfer/compute interleaving where Get/GetRange model one block
// sleep. This is the sda-download shape: chunked range reads behind a
// reader-style interface.

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
	// FlowCap, when > 0, caps each chunk flow's rate in bytes/second,
	// like Get's flowCap.
	FlowCap float64
}

// Stream is one in-flight streaming ranged GET. All methods must be
// called from des process context; like the service itself it needs no
// locking because the kernel runs one process at a time.
type Stream struct {
	svc  *Service
	opts StreamOptions
	size int64 // resolved range length (open-ended requests included)

	ready  []payload.Payload // transferred, not yet consumed (FIFO)
	err    error             // terminal producer error, after ready drains
	eof    bool              // producer delivered the whole range
	closed bool              // consumer abandoned the stream

	consumer *des.Proc // parked in Next waiting for a chunk
	producer *des.Proc // parked behind a full prefetch window
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
func (s *Service) GetStream(p *des.Proc, bkt, key string, off, n int64, opts StreamOptions) (*Stream, error) {
	obj, err := s.lookup(p, bkt, key)
	if err != nil {
		return nil, err
	}
	if n < 0 {
		n = obj.Payload.Size() - off
		if n < 0 {
			n = 0
		}
	}
	rng, err := obj.Payload.Slice(off, n)
	if err != nil {
		return nil, fmt.Errorf("get stream %s/%s: %w", bkt, key, err)
	}
	if opts.ChunkBytes <= 0 {
		opts.ChunkBytes = DefaultStreamChunk
	}
	st := &Stream{svc: s, opts: opts, size: n}
	s.streamSeq++
	name := fmt.Sprintf("objectstore/stream#%d/%s/%s@%d", s.streamSeq, bkt, key, off)
	s.sim.Spawn(name, func(prod *des.Proc) { st.produce(prod, rng) })
	return st, nil
}

// produce transfers the range chunk by chunk, each chunk its own link
// flow, parking whenever the prefetch window is full.
func (st *Stream) produce(prod *des.Proc, rng payload.Payload) {
	size := rng.Size()
	for off := int64(0); off < size; {
		if st.closed {
			return
		}
		// Continuations after the first chunk can be throttled like any
		// request (the open request already drew once at admission).
		if off > 0 {
			if err := st.svc.failMaybe(prod); err != nil {
				st.fail(err)
				return
			}
		}
		n := st.opts.ChunkBytes
		if off+n > size {
			n = size - off
		}
		pl, err := rng.Slice(off, n)
		if err != nil { // unreachable: the range was validated at open
			st.fail(err)
			return
		}
		st.svc.transfer(prod, n, st.opts.FlowCap)
		// The chunk fully traversed the backend link even when the
		// consumer closed mid-flight: egress is counted regardless.
		st.svc.metrics.BytesOut += n
		if st.closed { // consumer gave up while this chunk was in flight
			return
		}
		off += n
		st.deliver(pl)
		for len(st.ready) >= streamDepth && !st.closed {
			st.producer = prod
			prod.Park()
			st.producer = nil
		}
	}
	st.eof = true
	st.wakeConsumer()
}

func (st *Stream) deliver(pl payload.Payload) {
	st.ready = append(st.ready, pl)
	st.wakeConsumer()
}

func (st *Stream) fail(err error) {
	st.err = err
	st.wakeConsumer()
}

func (st *Stream) wakeConsumer() {
	if st.consumer != nil {
		st.consumer.Wake()
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
	for len(st.ready) == 0 && st.err == nil && !st.eof {
		st.consumer = p
		p.Park()
		st.consumer = nil
	}
	if len(st.ready) > 0 {
		pl := st.ready[0]
		st.ready = st.ready[1:]
		if st.producer != nil {
			st.producer.Wake()
		}
		return pl, nil
	}
	if st.err != nil {
		return nil, st.err
	}
	return nil, io.EOF
}

// Close abandons the stream: the producer stops after any chunk still
// in flight. Closing a drained or failed stream is a no-op. Always
// safe to defer.
func (st *Stream) Close() {
	st.closed = true
	st.ready = nil
	if st.producer != nil {
		st.producer.Wake()
	}
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
	retries  int
	backoff  time.Duration
}

// GetStream opens a resumable streaming GET of [off, off+n) with
// retry; a negative n streams through the end of the object.
// Opts.FlowCap of zero inherits the client's FlowCap.
func (c *Client) GetStream(p *des.Proc, bkt, key string, off, n int64, opts StreamOptions) (*ClientStream, error) {
	if opts.FlowCap == 0 {
		opts.FlowCap = c.FlowCap
	}
	cs := &ClientStream{c: c, bkt: bkt, key: key, off: off, n: n, opts: opts, backoff: RetryBackoffBase}
	if err := cs.ensure(p); err != nil {
		return nil, err
	}
	return cs, nil
}

// maxRetries returns the client's effective retry bound.
func (c *Client) maxRetries() int {
	if c.MaxRetries > 0 {
		return c.MaxRetries
	}
	return 6
}

// ensure opens the underlying stream at the current resume offset,
// retrying throttled admissions against the shared budget.
func (cs *ClientStream) ensure(p *des.Proc) error {
	for cs.cur == nil {
		st, err := cs.c.svc.GetStream(p, cs.bkt, cs.key, cs.off, cs.n, cs.opts)
		if err == nil {
			cs.cur = st
			if cs.n < 0 { // open-ended range: pin the resolved length for resumes
				cs.n = st.Size()
			}
			return nil
		}
		if !errors.Is(err, ErrSlowDown) {
			return err
		}
		if err := cs.backoffOrExhaust(p, err); err != nil {
			return err
		}
	}
	return nil
}

func (cs *ClientStream) backoffOrExhaust(p *des.Proc, cause error) error {
	if cs.retries >= cs.c.maxRetries() {
		return fmt.Errorf("objectstore: retries exhausted: %w", cause)
	}
	cs.retries++
	cs.c.retries++
	p.Sleep(cs.backoff)
	cs.backoff *= 2
	return nil
}

// Next returns the next chunk, transparently resuming after throttled
// continuations. io.EOF signals the end of the range.
func (cs *ClientStream) Next(p *des.Proc) (payload.Payload, error) {
	for {
		if err := cs.ensure(p); err != nil {
			return nil, err
		}
		pl, err := cs.cur.Next(p)
		switch {
		case err == nil:
			cs.off += pl.Size()
			cs.n -= pl.Size()
			// A delivered chunk proves the store recovered: restart the
			// backoff ladder and the MaxRetries budget so a later,
			// unrelated throttle doesn't inherit this incident's doubled
			// delay or exhausted count. The budget bounds consecutive
			// failures per incident — a long stream crossing a transient
			// brownout window makes progress between throttles and must
			// not die from their lifetime total.
			cs.backoff = RetryBackoffBase
			cs.retries = 0
			return pl, nil
		case errors.Is(err, io.EOF):
			return nil, io.EOF
		case errors.Is(err, ErrSlowDown):
			cs.cur = nil // resume at cs.off after backoff
			if err := cs.backoffOrExhaust(p, err); err != nil {
				return nil, err
			}
		default:
			return nil, err
		}
	}
}

// Close abandons the stream.
func (cs *ClientStream) Close() {
	if cs.cur != nil {
		cs.cur.Close()
		cs.cur = nil
	}
	cs.n = 0
}
