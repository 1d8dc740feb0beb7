package des

import "slices"

// Resource is a counting semaphore in virtual time with strict FIFO
// admission: a large request at the head of the queue blocks smaller
// later requests, so no requester starves.
//
// A requester is a process (Acquire parks it) or a callback
// (AcquireAsync returns at once). Both wait in the one queue and are
// granted by the one dispatch, in arrival order whichever kind they
// are. A grant out of the queue is one event at the instant of the
// Release that made room: the wake of the process, or the callback
// scheduled exactly where that wake would have gone. A caller that is a
// state machine rather than a process therefore fires the events, in
// the order, that a process making the same requests would.
type Resource struct {
	sim      *Sim
	capacity int64
	inUse    int64
	// queue[head:] are the waiters, oldest first. Popped slots are
	// cleared, and the slice restarts at its base whenever it empties or
	// fills, so a queue that has reached its peak length allocates
	// nothing per wait.
	queue []resWaiter
	head  int
}

// resWaiter is one queued request: a parked process or a callback.
type resWaiter struct {
	n  int64
	p  *Proc
	fn func()
}

// NewResource returns a semaphore with the given capacity (> 0).
func NewResource(s *Sim, capacity int64) *Resource {
	if capacity <= 0 {
		panic("des: Resource capacity must be positive")
	}
	return &Resource{sim: s, capacity: capacity}
}

// Capacity reports the configured capacity.
func (r *Resource) Capacity() int64 { return r.capacity }

// InUse reports the number of units currently held.
func (r *Resource) InUse() int64 { return r.inUse }

// Queued reports the number of requests waiting to acquire.
func (r *Resource) Queued() int { return len(r.queue) - r.head }

// Acquire blocks p until n units are available (and all earlier
// requests have been admitted). Requests larger than the capacity can
// never be satisfied and panic immediately.
func (r *Resource) Acquire(p *Proc, n int64) {
	if r.request(resWaiter{n: n, p: p}) {
		return
	}
	defer r.withdraw(p, n)
	for p.granted = false; !p.granted; {
		p.Park()
	}
}

// withdraw passes on, for a process killed in Acquire, what it waited
// for: the units a Release granted it just before the kill reached it,
// or else its place in the queue.
func (r *Resource) withdraw(p *Proc, n int64) {
	switch {
	case !p.killed:
	case p.granted:
		r.Release(n)
	default:
		i := r.head + slices.IndexFunc(r.queue[r.head:], func(w resWaiter) bool { return w.p == p })
		r.queue = slices.Delete(r.queue, i, i+1)
		r.dispatch()
	}
}

// AcquireAsync is Acquire for a caller that is not a process. It
// reports true when the units were free and are now held; otherwise the
// request joins the queue and granted fires, once, as an event of the
// instant the units become this request's: where Acquire's wake of a
// process queued in its place would have fired. granted runs on
// whichever goroutine holds the baton and must not block, like any
// scheduled callback; it is never run from inside the call.
func (r *Resource) AcquireAsync(n int64, granted func()) bool {
	return r.request(resWaiter{n: n, fn: granted})
}

// request takes w's units now if it can, or queues w.
func (r *Resource) request(w resWaiter) bool {
	if w.n <= 0 {
		return true
	}
	if w.n > r.capacity {
		panic("des: Resource request exceeds capacity")
	}
	if r.Queued() == 0 && r.inUse+w.n <= r.capacity {
		r.inUse += w.n
		return true
	}
	if r.head > 0 && len(r.queue) == cap(r.queue) {
		n := copy(r.queue, r.queue[r.head:])
		clear(r.queue[n:])
		r.queue, r.head = r.queue[:n], 0
	}
	r.queue = append(r.queue, w)
	return false
}

// Release returns n units and admits queued requesters in FIFO order.
func (r *Resource) Release(n int64) {
	if n <= 0 {
		return
	}
	r.inUse -= n
	if r.inUse < 0 {
		panic("des: Resource released more than acquired")
	}
	r.dispatch()
}

func (r *Resource) dispatch() {
	for r.Queued() > 0 {
		w := r.queue[r.head]
		if r.inUse+w.n > r.capacity {
			return
		}
		r.inUse += w.n
		// Clear the slot: the backing array must not keep a granted
		// waiter (and all its callback holds) reachable.
		r.queue[r.head] = resWaiter{}
		if r.head++; r.head == len(r.queue) {
			r.queue, r.head = r.queue[:0], 0
		}
		if w.p != nil {
			w.p.granted = true
			w.p.Wake()
		} else {
			r.sim.Schedule(r.sim.now, w.fn)
		}
	}
}
