package des

import "time"

// TokenBucket rate-limits operations in virtual time. Waiters are
// admitted strictly FIFO. Requests larger than the burst are allowed
// (the bucket momentarily overdraws), which matches how batch requests
// are typically admitted by cloud services' limiters.
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
// waiting. It preserves Take's FIFO discipline: while any Take is
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

// Take blocks p until n tokens have been granted. Calls are admitted
// FIFO; a waiter never observes tokens taken by a later requester.
func (tb *TokenBucket) Take(p *Proc, n float64) {
	if n <= 0 {
		return
	}
	tb.gate.Acquire(p, 1)
	defer tb.gate.Release(1)
	tb.refill()
	if tb.tokens < n {
		deficit := n - tb.tokens
		wait := time.Duration(deficit / tb.rate * float64(time.Second))
		p.Sleep(wait)
		// Credit exactly the deficit rather than re-deriving it from
		// the clock, so float rounding cannot leave us short.
		tb.tokens += deficit
		tb.last = tb.sim.Now()
	}
	tb.tokens -= n
}
