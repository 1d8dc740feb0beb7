package objectstore

import (
	"fmt"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/lists"
)

// A request is a chain of events with its calling process parked once,
// in des.Proc.Await. What a request waits for, in order:
//
//	gate     its turn at the head of the class throttle's FIFO
//	deficit  the refill of the token it is short of
//	latency  the service's RequestLatency (after the failure draw)
//	body     a PUT's, a part's or a GET's bytes crossing the backend link
//
// Each is one event, where the activation of a process sleeping through
// them was (request_oracle_test.go keeps that process form and holds the
// chain to it, event for event and draw for draw). The throttle's two are
// its callbacks; the latency (des.Proc.WakeAfter) and the body (a flow
// des.Link.Start puts on the link in the caller's name) are the caller's
// own wakes, which Await hands to step.
//
// A request takes a list and works through it strictly one element after
// another, as a loop over single calls would: element i+1 asks for its
// token in the event that completed element i. Put, Get, GetRange,
// UploadPart and GetStream are a list of one; Head, List, CreateBucket
// and the other multipart calls one with nothing after its latency.
//
// A kill at a RunUntil horizon cancels the caller's pending wake, and
// with it the chain; a throttle's grant that arrives for a caller that is
// gone (des.Proc.Gone) ends it there, with nothing drawn, charged, stored
// or opened. Chain records are recycled through requests, the process's
// free list, so a request allocates nothing for being one.

// requestKind says what a request does once admitted: nothing more
// (admitOnly: the caller does the rest), store a list of objects (class
// A each), store a part of the upload key names (class A), read a whole
// object or bytes [off, off+length) of one (class B), or open a stream on
// each of a list of objects (class B each).
type requestKind uint8

const (
	admitOnly requestKind = iota
	putObjects
	uploadPart
	getObject
	getRange
	openStreams
)

// waitFor is what the caller's next wake ends for its chain: nothing yet
// (Await's first call starts it), its token (granted by the throttle's
// callback, so a wake meanwhile is stray), its latency, the latency a
// failure drawn at the grant costs, or its body, which Collect has to
// find finished.
type waitFor uint8

const (
	waitNone waitFor = iota
	waitToken
	waitLatency
	waitFailed
	waitBody
)

type request struct {
	svc  *Service
	p    *des.Proc
	kind requestKind
	// tb throttles the request's class and count meters one of it.
	tb    *des.TokenBucket
	count func(*Metrics)
	take  des.TokenWaiter

	bkt string
	// i is the element in progress of n; key and body are that element's.
	// body is a PUT's or a part's to send, and a GET's once found.
	i, n int
	key  string
	body payload.Payload

	// A list of PUTs is each(0..n-1); a single one sets key and body.
	// An UploadPart sets key to the upload ID and part to the number.
	// flowCap is the caller's cap on a body's flow (a stream's chunks
	// take theirs from the stream's client).
	each    func(i int) (string, payload.Payload)
	flowCap float64
	part    int

	// A list of opens is keys, each stream started in its streams[i]; a
	// single one sets key and starts in stream. Every element reads
	// [off, off+length) under opts, as does a GetRange.
	keys        []string
	streams     []ClientStream
	stream      *ClientStream
	off, length int64
	opts        StreamOptions

	// wait is what the caller's next wake ends, flow the body in flight
	// and err why element i cannot complete.
	wait waitFor
	flow *des.Flow
	err  error

	// The chain's two entries, bound once per record: the caller's wakes
	// and the throttle's grant.
	stepFn, grantFn func()
}

// requests holds the chain records no request is using, each with its
// bound entries and its token waiter's and nothing of its last rig.
var requests = lists.Free[*request]{
	Size: func(*request) int { return 1 },
	Fresh: func(int) *request {
		r := &request{}
		r.stepFn, r.grantFn = r.step, r.grant
		return r
	},
}

// request returns a chain record for p to run n elements of kind in
// bkt, each admitted through tb.
func (s *Service) request(p *des.Proc, kind requestKind, tb *des.TokenBucket, bkt string, n int) *request {
	r := requests.Take(1)
	r.svc, r.p, r.kind, r.tb, r.bkt, r.n = s, p, kind, tb, bkt, n
	r.count = countClassB
	if tb == s.writeTB {
		r.count = countClassA
	}
	return r
}

// release hands back a record whose chain has no event pending. A
// record whose process was killed mid-request is never released: the
// throttle's grant may still be on the heap.
func (r *request) release() {
	r.take.Reset()
	*r = request{take: r.take, stepFn: r.stepFn, grantFn: r.grantFn}
	requests.Put(r)
}

// run parks the caller while the chain works through the elements from
// i. It returns the first element not done and why, or n and nil.
func (r *request) run() (int, error) {
	r.p.Await(r.stepFn)
	return r.i, r.err
}

// step is the chain at Await's first call and at every wake of the
// caller's: it takes in what r.wait says the wake ends. A wake the
// chain did not arrange finds the token not granted (nothing is armed)
// or the body still in flight (Collect), and changes nothing; one during
// a latency cannot come, the latency's own wake being pending.
func (r *request) step() {
	switch r.wait {
	case waitNone:
		r.begin()
	case waitLatency:
		r.admitted()
	case waitFailed:
		r.svc.metrics.Charge(r.p, countThrottled)
		r.finish(ErrSlowDown)
	case waitBody:
		if r.svc.link.Collect(r.flow) {
			r.flow = nil
			r.arrived()
		}
	}
}

// begin asks for element i's token.
func (r *request) begin() {
	switch {
	case r.each != nil:
		r.key, r.body = r.each(r.i)
	case r.keys != nil:
		r.key = r.keys[r.i]
	}
	r.wait = waitToken
	if r.tb.TakeAsync(&r.take, 1, r.grantFn) {
		r.grant()
	}
}

// grant has the token: it draws the request's failure and arms the
// latency as the caller's wake, unless the caller is gone.
func (r *request) grant() {
	if r.p.Gone() {
		return
	}
	s := r.svc
	r.wait = waitLatency
	if s.drawFailure() {
		r.wait = waitFailed
	}
	r.p.WakeAfter(s.cfg.RequestLatency)
}

// admitted is the end of element i's latency: the operation is counted
// and what it names looked up, and its body, if any, put on the link.
func (r *request) admitted() {
	s := r.svc
	s.metrics.Charge(r.p, r.count)
	switch r.kind {
	case putObjects:
		if _, ok := s.buckets[r.bkt]; !ok {
			r.finish(ErrNoSuchBucket)
			return
		}
	case uploadPart:
		if _, ok := s.uploads[r.key]; !ok {
			r.finish(fmt.Errorf("%w: %s", ErrNoSuchUpload, r.key))
			return
		}
	case getObject, getRange:
		obj, err := s.find(r.bkt, r.key)
		if err == nil && r.kind == getRange {
			if obj.pl, err = obj.pl.Slice(r.off, r.length); err != nil {
				err = fmt.Errorf("get range %s/%s: %w", r.bkt, r.key, err)
			}
		}
		if err != nil {
			r.finish(err)
			return
		}
		r.body = obj.pl
	case openStreams:
		if err := r.open(); err != nil {
			r.finish(err)
			return
		}
		r.next()
		return
	default:
		r.next()
		return
	}
	r.wait = waitBody
	if r.flow = s.link.Start(r.p, r.body.Size(), s.connCap(r.flowCap)); r.flow == nil {
		r.arrived() // nothing to move
	}
}

// arrived is the end of element i's body: a PUT's object is stored, a
// part kept, a GET's bytes counted out.
func (r *request) arrived() {
	s := r.svc
	switch r.kind {
	case putObjects:
		s.metrics.Charge(r.p, func(m *Metrics) { m.BytesIn += r.body.Size() })
		s.keep(s.buckets[r.bkt], r.key, r.body)
	case uploadPart:
		s.metrics.Charge(r.p, func(m *Metrics) { m.BytesIn += r.body.Size() })
		// An upload completed or aborted while its part was in flight
		// has no use for it.
		if up, ok := s.uploads[r.key]; ok {
			up.parts[r.part] = r.body
		}
	default:
		s.metrics.Charge(r.p, func(m *Metrics) { m.BytesOut += r.body.Size() })
	}
	r.next()
}

// next moves on to element i+1, or resumes the caller after the last.
func (r *request) next() {
	if r.i++; r.i < r.n {
		r.begin()
		return
	}
	r.p.Resume()
}

// finish resumes the caller with why element i cannot complete.
func (r *request) finish(err error) {
	r.err = err
	r.p.Resume()
}

// open finds element i's object and starts its stream.
func (r *request) open() error {
	s := r.svc
	obj, err := s.find(r.bkt, r.key)
	if err != nil {
		return err
	}
	n := r.length
	if n < 0 {
		n = max(obj.Size-r.off, 0)
	}
	if err := payload.CheckRange(r.off, n, obj.Size); err != nil {
		return fmt.Errorf("get stream %s/%s: %w", r.bkt, r.key, err)
	}
	st := r.stream
	if r.streams != nil {
		st = &r.streams[r.i]
	}
	s.startStream(st, r.p, s.buckets[r.bkt], r.key, obj.pl, r.off, n, r.opts)
	return nil
}

// admit charges p one operation of tb's class: the throttle, the
// failure draw, the request latency.
func (s *Service) admit(p *des.Proc, tb *des.TokenBucket) error {
	r := s.request(p, admitOnly, tb, "", 1)
	_, err := r.run()
	r.release()
	return err
}
