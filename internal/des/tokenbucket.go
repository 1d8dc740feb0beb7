package des

import "time"

// TokenBucket rate-limits operations in virtual time. Waiters are
// admitted strictly FIFO. Requests larger than the burst are allowed
// (the bucket momentarily overdraws), which matches how batch requests
// are typically admitted by cloud services' limiters.
//
// A taker is a callback (TakeAsync); a process takes by awaiting one
// (Proc.Await). Takers queue on a gate, a Resource of one, and wait out
// a deficit at the head of it with one timer. A taker's events (the
// gate's grant, the end of the deficit wait) are the activations a
// process taking in its place would have had, at the same instants and
// in the same order among the events of those instants.
type TokenBucket struct {
	sim    *Sim
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Duration
	gate   *Resource
}

// NewTokenBucket returns a bucket that refills at rate tokens/second up
// to burst, starting full. rate must be positive; burst is clamped to
// at least 1.
func NewTokenBucket(s *Sim, rate, burst float64) *TokenBucket {
	if rate <= 0 {
		panic("des: TokenBucket rate must be positive")
	}
	if burst < 1 {
		burst = 1
	}
	return &TokenBucket{
		sim:    s,
		rate:   rate,
		burst:  burst,
		tokens: burst,
		last:   s.Now(),
		gate:   NewResource(s, 1),
	}
}

func (tb *TokenBucket) refill() {
	now := tb.sim.Now()
	elapsed := (now - tb.last).Seconds()
	tb.last = now
	tb.tokens += elapsed * tb.rate
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
}

// TryTake takes n tokens if they are available right now, without
// waiting. It preserves the FIFO discipline: while any TakeAsync is
// admitted or queued on the gate, TryTake fails rather than overtake
// the waiters. Non-positive requests always succeed. This is the
// admission-control primitive: a gateway rejecting over-rate traffic
// must not block the submitter the way a paced transfer does.
func (tb *TokenBucket) TryTake(n float64) bool {
	if n <= 0 {
		return true
	}
	if tb.gate.InUse() > 0 || tb.gate.Queued() > 0 {
		return false
	}
	tb.refill()
	if tb.tokens < n {
		return false
	}
	tb.tokens -= n
	return true
}

// shortfall is what the holder of the gate finds on reaching the head
// of the queue: how many of the n tokens it wants are missing, and how
// long the bucket takes to refill them.
func (tb *TokenBucket) shortfall(n float64) (deficit float64, wait time.Duration) {
	tb.refill()
	if tb.tokens >= n {
		return 0, 0
	}
	deficit = n - tb.tokens
	return deficit, time.Duration(deficit / tb.rate * float64(time.Second))
}

// credit ends a deficit wait. It credits exactly the deficit rather
// than re-deriving it from the clock, so float rounding cannot leave
// the taker short.
func (tb *TokenBucket) credit(deficit float64) {
	tb.tokens += deficit
	tb.last = tb.sim.Now()
}

// TokenWaiter is the state of one TakeAsync from the call until its
// grant. It belongs in the caller's own record (a request, a stream),
// which is what makes a queued take allocate nothing; the zero value is
// ready, and it may be reused for the next take once this one has been
// granted.
type TokenWaiter struct {
	tb      *TokenBucket
	n       float64
	deficit float64
	granted func()
	// The two events of a take, bound on first use.
	gateFn, creditFn func()
}

// TakeAsync takes n tokens, FIFO: a taker never observes tokens taken
// by a later one. It reports true when the n tokens were there for the
// taking and have been taken. Otherwise granted fires, once, as an event
// of the instant they have been: where a process blocked in this
// caller's place would have resumed, with the gate already passed on to
// the next waiter.
// granted runs on whichever goroutine holds the baton and must not
// block; it is never run from inside the call.
func (tb *TokenBucket) TakeAsync(w *TokenWaiter, n float64, granted func()) bool {
	if n <= 0 {
		return true
	}
	if w.gateFn == nil {
		w.gateFn, w.creditFn = w.atGate, w.credited
	}
	w.tb, w.n, w.granted = tb, n, granted
	return tb.gate.AcquireAsync(1, w.gateFn) && w.head()
}

// Reset has a granted waiter forget its take but keep its bound events.
func (w *TokenWaiter) Reset() {
	*w = TokenWaiter{gateFn: w.gateFn, creditFn: w.creditFn}
}

// head runs with the gate held: it takes the tokens and reports true,
// or starts the deficit wait.
func (w *TokenWaiter) head() bool {
	deficit, wait := w.tb.shortfall(w.n)
	if deficit > 0 {
		w.deficit = deficit
		w.tb.sim.After(wait, w.creditFn)
		return false
	}
	w.take()
	return true
}

// take takes the tokens and passes the gate on.
func (w *TokenWaiter) take() {
	w.tb.tokens -= w.n
	w.tb.gate.Release(1)
}

// atGate is the gate's grant to a take that had to queue.
func (w *TokenWaiter) atGate() {
	if w.head() {
		w.granted()
	}
}

// credited is the end of the deficit wait.
func (w *TokenWaiter) credited() {
	w.tb.credit(w.deficit)
	w.take()
	w.granted()
}
