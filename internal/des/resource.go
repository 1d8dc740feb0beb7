package des

// Resource is a counting semaphore in virtual time with strict FIFO
// admission: a large request at the head of the queue blocks smaller
// later requests, so no requester starves.
type Resource struct {
	sim      *Sim
	capacity int64
	inUse    int64
	queue    []*resWaiter
}

type resWaiter struct {
	p       *Proc
	n       int64
	granted bool
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

// Queued reports the number of processes waiting to acquire.
func (r *Resource) Queued() int { return len(r.queue) }

// Acquire blocks p until n units are available (and all earlier
// requests have been admitted). Requests larger than the capacity can
// never be satisfied and panic immediately.
func (r *Resource) Acquire(p *Proc, n int64) {
	if n <= 0 {
		return
	}
	if n > r.capacity {
		panic("des: Resource request exceeds capacity")
	}
	if len(r.queue) == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		return
	}
	w := &resWaiter{p: p, n: n}
	r.queue = append(r.queue, w)
	for !w.granted {
		p.Park()
	}
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
	for len(r.queue) > 0 {
		head := r.queue[0]
		if r.inUse+head.n > r.capacity {
			return
		}
		r.inUse += head.n
		head.granted = true
		r.queue = r.queue[1:]
		head.p.Wake()
	}
}
