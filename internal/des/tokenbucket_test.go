package des

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// take blocks p until n tokens have been granted: the process form of a
// take, TokenBucket.Take as it stood before a taker became a callback
// only, kept as the oracle TestTakeAsyncMatchesTake holds TakeAsync to
// and as the process taker of these tests, the kernel trace and the
// benchmarks.
func take(tb *TokenBucket, p *Proc, n float64) {
	if n <= 0 {
		return
	}
	tb.gate.Acquire(p, 1)
	defer tb.gate.Release(1)
	if deficit, wait := tb.shortfall(n); deficit > 0 {
		p.Sleep(wait)
		tb.credit(deficit)
	}
	tb.tokens -= n
}

func TestTokenBucketBurstIsFree(t *testing.T) {
	s := New(1)
	tb := NewTokenBucket(s, 10, 5)
	var took time.Duration
	s.Spawn("t", func(p *Proc) {
		take(tb, p, 5)
		took = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if took != 0 {
		t.Fatalf("burst take finished at %v, want 0", took)
	}
}

func TestTokenBucketThrottlesSustainedRate(t *testing.T) {
	s := New(1)
	tb := NewTokenBucket(s, 100, 1) // 100 ops/s, tiny burst
	const n = 500
	s.Spawn("t", func(p *Proc) {
		for i := 0; i < n; i++ {
			take(tb, p, 1)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	elapsed := s.Now().Seconds()
	want := float64(n-1) / 100 // first op free from the burst
	if math.Abs(elapsed-want) > 0.05 {
		t.Fatalf("500 ops at 100/s took %.3fs, want ~%.3fs", elapsed, want)
	}
}

func TestTokenBucketRefillCapsAtBurst(t *testing.T) {
	s := New(1)
	tb := NewTokenBucket(s, 10, 5)
	var second time.Duration
	s.Spawn("t", func(p *Proc) {
		take(tb, p, 5)       // drain burst at t=0
		p.Sleep(time.Minute) // way more than enough to refill past burst
		take(tb, p, 5)       // burst again: free
		start := p.Now()
		take(tb, p, 5) // must wait 0.5s, proving tokens capped at 5
		second = p.Now() - start
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if math.Abs(second.Seconds()-0.5) > 0.01 {
		t.Fatalf("post-idle take waited %v, want ~500ms", second)
	}
}

func TestTokenBucketFIFOFairness(t *testing.T) {
	s := New(1)
	tb := NewTokenBucket(s, 1, 1) // 1 op/s
	var order []string
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("w%d", i)
		delay := time.Duration(i) * time.Millisecond
		s.Spawn(name, func(p *Proc) {
			p.Sleep(delay)
			take(tb, p, 1)
			order = append(order, p.name())
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, name := range []string{"w0", "w1", "w2", "w3"} {
		if order[i] != name {
			t.Fatalf("admission order = %v, want arrival order", order)
		}
	}
}

func TestTokenBucketLargeTakeOverdraws(t *testing.T) {
	s := New(1)
	tb := NewTokenBucket(s, 10, 2)
	var took time.Duration
	s.Spawn("t", func(p *Proc) {
		take(tb, p, 12) // > burst; deficit model must admit after wait
		took = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := time.Second // (12-2)/10
	if d := took - want; d < -10*time.Millisecond || d > 10*time.Millisecond {
		t.Fatalf("large take at %v, want ~%v", took, want)
	}
}

// TestTokenBucketSubTokenRefill: at rates below 1 token/s — the band
// an admission controller assigns an abusive tenant — fractional
// refill must accumulate correctly instead of rounding to zero.
func TestTokenBucketSubTokenRefill(t *testing.T) {
	s := New(1)
	tb := NewTokenBucket(s, 0.5, 1) // one token every 2s
	var times []time.Duration
	s.Spawn("t", func(p *Proc) {
		for i := 0; i < 4; i++ {
			take(tb, p, 1)
			times = append(times, p.Now())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []time.Duration{0, 2 * time.Second, 4 * time.Second, 6 * time.Second}
	for i := range want {
		if d := times[i] - want[i]; d < -10*time.Millisecond || d > 10*time.Millisecond {
			t.Fatalf("take %d admitted at %v, want ~%v (all: %v)", i, times[i], want[i], times)
		}
	}
}

// TestTokenBucketTryTake: the non-blocking path takes only what has
// accrued, never overtakes queued blocking takers, and resumes
// granting after the refill catches up.
func TestTokenBucketTryTake(t *testing.T) {
	s := New(1)
	tb := NewTokenBucket(s, 10, 2)
	s.Spawn("t", func(p *Proc) {
		if !tb.TryTake(2) {
			t.Error("burst TryTake failed")
		}
		if tb.TryTake(1) {
			t.Error("TryTake granted from an empty bucket")
		}
		p.Sleep(100 * time.Millisecond) // refills exactly 1 token
		if !tb.TryTake(1) {
			t.Error("TryTake failed after refill")
		}
		if tb.TryTake(0.0001) {
			t.Error("TryTake granted immediately after draining")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestTokenBucketTryTakeYieldsToWaiters: a blocked Take holds the FIFO
// gate; TryTake must fail rather than steal the tokens the sleeping
// waiter has been promised.
func TestTokenBucketTryTakeYieldsToWaiters(t *testing.T) {
	s := New(1)
	tb := NewTokenBucket(s, 1, 1)
	var takerDone time.Duration
	s.Spawn("taker", func(p *Proc) {
		take(tb, p, 1) // burst
		take(tb, p, 1) // waits 1s for refill
		takerDone = p.Now()
	})
	s.Spawn("opportunist", func(p *Proc) {
		for i := 0; i < 20; i++ {
			p.Sleep(100 * time.Millisecond)
			if tb.TryTake(1) {
				t.Errorf("TryTake overtook a queued Take at %v", p.Now())
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if d := takerDone - time.Second; d < -10*time.Millisecond || d > 10*time.Millisecond {
		t.Fatalf("queued taker admitted at %v, want ~1s", takerDone)
	}
}

// TestTokenBucketConcurrentTakersAggregateRate: many processes
// hammering one bucket — the gateway's 100-tenant shape — are admitted
// at exactly the configured aggregate rate, FIFO, with no token lost
// or minted by interleaved refills.
func TestTokenBucketConcurrentTakersAggregateRate(t *testing.T) {
	s := New(1)
	tb := NewTokenBucket(s, 50, 1)
	const takers, each = 20, 10
	admitted := 0
	for i := 0; i < takers; i++ {
		s.Spawn(fmt.Sprintf("c%d", i), func(p *Proc) {
			for k := 0; k < each; k++ {
				take(tb, p, 1)
				admitted++
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if admitted != takers*each {
		t.Fatalf("admitted %d, want %d", admitted, takers*each)
	}
	elapsed := s.Now().Seconds()
	want := float64(takers*each-1) / 50 // first op rides the burst
	if math.Abs(elapsed-want) > 0.05 {
		t.Fatalf("%d ops at 50/s took %.3fs, want ~%.3fs", takers*each, elapsed, want)
	}
}

func TestTokenBucketZeroTakeNoop(t *testing.T) {
	s := New(1)
	tb := NewTokenBucket(s, 1, 1)
	s.Spawn("t", func(p *Proc) {
		take(tb, p, 0)
		take(tb, p, -5)
		if p.Now() != 0 {
			t.Error("zero/negative take advanced time")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}
