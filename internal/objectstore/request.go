package objectstore

import (
	"fmt"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
)

// A request is a chain of events with its calling process parked once.
// What a request waits for, in order:
//
//	gate     its turn at the head of the class throttle's FIFO
//	deficit  the refill of the token it is short of
//	latency  the service's RequestLatency (after the failure draw)
//	body     a PUT's bytes crossing the backend link
//
// Each of those is one event. The caller is a process and could sleep
// through each in turn, and until PR 22 it did, at a goroutine handoff a
// wait and with nothing able to observe it in between. Now the waits
// are callbacks, scheduled exactly where the process's activations
// were, and only the last one is the process's own wake: armed with
// des.Proc.WakeAfter when it is a latency, or the completion of a flow
// des.Link.Start put on the link in the process's name. Event for
// event and draw for draw a run is what it was (request_oracle_test.go
// keeps the process form to hold this to); the process suspends once
// where it suspended three or four times.
//
// A request takes a list and works through it strictly one element after
// another, exactly as a caller's loop over single calls would: element
// i+1 asks for its token in the event that completed element i. The
// process is woken only for an element it has to finish itself, which
// is decided when the element's token is granted (mine): its failure
// was drawn, what it names is not there, it is the last one, or it has
// no body to wait for. A process handed element i finishes it (run,
// then put or open) and, if the list goes on, starts the chain again at
// i+1. Put and GetStream are the list of one.
//
// Chain records are recycled through Service.idle, so a request
// allocates nothing for being one.

// requestKind says what a request does once admitted.
type requestKind uint8

const (
	// admitOnly charges one operation and hands back: the caller does
	// the rest as a process (Get, Head, List, the multipart calls).
	admitOnly requestKind = iota
	// putObjects stores a list of objects (class A each).
	putObjects
	// openStreams opens a stream on each of a list of objects (class B
	// each).
	openStreams
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
	// i is the element in progress of n; key (and body, for a PUT) are
	// that element's.
	i, n int
	key  string
	body payload.Payload

	// A list of PUTs is each(0..n-1); a single one sets key and body.
	each    func(i int) (string, payload.Payload)
	flowCap float64

	// A list of opens is keys, each stream attached to its streams[i]; a
	// single one sets key and is returned in stream. Every element reads
	// [off, off+length) under opts.
	keys        []string
	streams     []ClientStream
	stream      *Stream
	off, length int64
	opts        StreamOptions

	// handed is set once the chain has arranged the process's wake for
	// element i. failed: the element drew a failure and the wake ends
	// the latency that costs. flow: the wake is the end of this
	// transfer. err: a callback found the element cannot complete.
	handed bool
	failed bool
	flow   *des.Flow
	err    error

	// The chain's events, bound once per record.
	grantFn, latencyFn, storedFn func()
}

// request returns a chain record for p to run n elements of kind in
// bkt, each admitted through tb.
func (s *Service) request(p *des.Proc, kind requestKind, tb *des.TokenBucket, bkt string, n int) *request {
	var r *request
	if k := len(s.idle); k > 0 {
		r, s.idle = s.idle[k-1], s.idle[:k-1]
	} else {
		r = &request{svc: s}
		r.grantFn, r.latencyFn, r.storedFn = r.grant, r.latency, r.stored
	}
	r.p, r.kind, r.tb, r.bkt, r.n = p, kind, tb, bkt, n
	r.count = countClassB
	if tb == s.writeTB {
		r.count = countClassA
	}
	return r
}

// release recycles a record whose chain has no event pending. A record
// whose process was killed mid-request is never released: its callbacks
// may still be on the heap.
func (s *Service) release(r *request) {
	*r = request{
		svc: s, take: r.take,
		grantFn: r.grantFn, latencyFn: r.latencyFn, storedFn: r.storedFn,
	}
	s.idle = append(s.idle, r)
}

// run starts the chain at element i and parks the process until the
// chain hands that or a later element back. When the token is free the
// chain reaches its last wait before the process has parked, so the
// park comes first and the test after it; a wake that is not the
// chain's sends the process back to sleep. It returns why element i
// cannot complete, if the chain knows: its failure was drawn (the
// process has just slept out the latency that costs), or a callback
// found what it names gone.
func (r *request) run() error {
	r.handed = false
	r.begin()
	for {
		r.p.Park()
		if r.handed {
			break
		}
	}
	if r.failed {
		r.svc.metrics.Charge(r.p, countThrottled)
		return ErrSlowDown
	}
	return r.err
}

// begin asks for element i's token.
func (r *request) begin() {
	switch {
	case r.each != nil:
		r.key, r.body = r.each(r.i)
	case r.keys != nil:
		r.key = r.keys[r.i]
	}
	if r.tb.TakeAsync(&r.take, 1, r.grantFn) {
		r.grant()
	}
}

// grant has the token: it draws the request's failure and starts the
// latency, as the process's own wake if the element is the process's
// to finish.
func (r *request) grant() {
	s := r.svc
	r.failed = s.drawFailure()
	if r.failed || r.mine() {
		r.handed = true
		r.p.WakeAfter(s.cfg.RequestLatency)
		return
	}
	s.sim.After(s.cfg.RequestLatency, r.latencyFn)
}

// mine reports whether the process must take element i over from the
// end of its latency, because no later wait of the chain's could be its
// wake: the call returns there (an error, the end of the list) or goes
// on with no event of its own (an empty body). What is absent now may
// be there by then, and the process will look again.
func (r *request) mine() bool {
	switch r.kind {
	case putObjects:
		_, ok := r.svc.buckets[r.bkt]
		return !ok || r.body.Size() <= 0
	case openStreams:
		if r.i == r.n-1 {
			return true
		}
		_, err := r.svc.find(r.bkt, r.key)
		return err != nil
	}
	return true
}

// latency is the end of element i's request latency when the chain
// goes on from there: a PUT's body starts across the link, an open that
// is not the list's last makes way for the next.
func (r *request) latency() {
	s := r.svc
	if r.kind == openStreams {
		// What was there at the grant and is not now (a key deleted
		// under the latency) fails here; delivering that costs the one
		// event a chain adds anywhere.
		if err := r.open(); err != nil {
			r.err, r.handed = err, true
			r.p.Wake()
			return
		}
		r.i++
		r.begin()
		return
	}
	s.metrics.Charge(r.p, r.count)
	size, ceiling := r.body.Size(), s.connCap(r.flowCap)
	if r.i == r.n-1 {
		r.flow, r.handed = s.link.Start(r.p, size, ceiling), true
		return
	}
	s.link.TransferAsync(r.p.Name(), size, ceiling, r.storedFn)
}

// stored is the arrival of a PUT's body when the list goes on.
func (r *request) stored() {
	r.store()
	r.i++
	r.begin()
}

// store is the end of element i's PUT: its body has arrived.
func (r *request) store() {
	s := r.svc
	s.metrics.Charge(r.p, func(m *Metrics) { m.BytesIn += r.body.Size() })
	s.keep(s.buckets[r.bkt], r.key, r.body)
}

// put runs a putObjects request from element i. It returns the first
// element not stored and why, or n and nil.
func (r *request) put() (int, error) {
	s := r.svc
	for {
		if err := r.run(); err != nil {
			return r.i, err
		}
		if r.flow != nil {
			s.link.Wait(r.p, r.flow)
			r.flow = nil
		} else {
			s.metrics.Charge(r.p, r.count)
			if _, ok := s.buckets[r.bkt]; !ok {
				return r.i, ErrNoSuchBucket
			}
			s.transfer(r.p, r.body.Size(), r.flowCap)
		}
		r.store()
		if r.i++; r.i == r.n {
			return r.n, nil
		}
	}
}

// opened runs an openStreams request from element i. It returns the
// first element not opened and why, or n and nil.
func (r *request) opened() (int, error) {
	for {
		if err := r.run(); err != nil {
			return r.i, err
		}
		if err := r.open(); err != nil {
			return r.i, err
		}
		if r.i++; r.i == r.n {
			return r.n, nil
		}
	}
}

// open is what follows element i's latency: the operation is counted,
// the object found and its stream started.
func (r *request) open() error {
	s := r.svc
	s.metrics.Charge(r.p, r.count)
	obj, err := s.find(r.bkt, r.key)
	if err != nil {
		return err
	}
	n := r.length
	if n < 0 {
		n = max(obj.Size-r.off, 0)
	}
	// The whole object is its own range: nothing to cut.
	rng := obj.pl
	if r.off != 0 || n != obj.Size {
		if rng, err = obj.pl.Slice(r.off, n); err != nil {
			return fmt.Errorf("get stream %s/%s: %w", r.bkt, r.key, err)
		}
	}
	st := s.startStream(r.p, r.bkt, r.key, rng, r.off, n, r.opts)
	if r.streams != nil {
		r.streams[r.i].attach(st)
	} else {
		r.stream = st
	}
	return nil
}

// admit charges p one operation of tb's class: the throttle, the
// failure draw, the request latency.
func (s *Service) admit(p *des.Proc, tb *des.TokenBucket) error {
	r := s.request(p, admitOnly, tb, "", 1)
	err := r.run()
	count := r.count
	s.release(r)
	if err == nil {
		s.metrics.Charge(p, count)
	}
	return err
}
