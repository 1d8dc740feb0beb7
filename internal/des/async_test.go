package des

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/des/destest"
)

// The callback forms of Resource and TokenBucket, and the process
// primitives a chain of callbacks ends in. What holds them to the
// process forms event for event, RNG draw for RNG draw, is the request
// oracle in internal/objectstore; here each is held to its own
// contract.

// TestResourceProcAndCallbackWaitersShareOneFIFO queues callbacks and
// processes alternately behind a holder, with a request for the whole
// capacity at the head: nothing behind it may be granted first, however
// small and whichever kind, and every grant comes in arrival order at
// the instant of the release that made room.
func TestResourceProcAndCallbackWaitersShareOneFIFO(t *testing.T) {
	s := New(1)
	r := NewResource(s, 3)
	var grants []string
	granted := func(who string) { grants = append(grants, fmt.Sprintf("%s@%v", who, s.Now())) }
	sec := func(n int) time.Duration { return time.Duration(n) * time.Second }

	if !r.AcquireAsync(3, func() { t.Error("granted fired for units that were free") }) {
		t.Fatal("AcquireAsync on an idle resource did not take the units")
	}
	for i, at := range []int{10, 11, 12} { // the holder lets go a unit at a time
		s.Schedule(sec(at), func() {
			if r.Release(1); i < 2 && len(grants) != 0 {
				t.Errorf("granted past the head with %d of 3 units free: %v", i+1, grants)
			}
		})
	}
	callback := func(who string, at int, n int64, hold int) {
		s.Schedule(sec(at), func() {
			if r.AcquireAsync(n, func() {
				granted(who)
				s.After(sec(hold), func() { r.Release(n) })
			}) {
				t.Errorf("%s took %d units past the queue", who, n)
			}
		})
	}
	process := func(who string, at int, n int64, hold int) {
		s.Spawn(who, func(p *Proc) {
			p.Sleep(sec(at))
			r.Acquire(p, n)
			granted(who)
			p.Sleep(sec(hold))
			r.Release(n)
		})
	}
	callback("A", 1, 3, 8) // all of it: blocks everyone behind until t=12, holds to t=20
	process("B", 2, 1, 1)
	callback("C", 3, 1, 2)
	process("D", 4, 2, 5) // blocks E at t=20 with one unit free
	callback("E", 5, 1, 1)
	s.Schedule(sec(9), func() {
		if r.Queued() != 5 {
			t.Errorf("Queued() = %d with five waiters", r.Queued())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"A@12s", "B@20s", "C@20s", "D@21s", "E@22s"}
	if !slices.Equal(grants, want) {
		t.Errorf("grants %v, want %v", grants, want)
	}
	if r.InUse() != 0 || r.Queued() != 0 {
		t.Errorf("drained resource holds %d, queues %d", r.InUse(), r.Queued())
	}
	for i, w := range r.queue[:cap(r.queue)] {
		if w.p != nil || w.fn != nil {
			t.Errorf("slot %d of the queue's array still reaches a granted waiter", i)
		}
	}
}

// TestResourceQueuedWaitAllocatesNothing holds a queued wait, of either
// kind, at no allocation once the queue has reached its length.
func TestResourceQueuedWaitAllocatesNothing(t *testing.T) {
	if destest.Race {
		t.Skip("the race detector allocates")
	}
	s := New(1)
	r := NewResource(s, 1)
	release := func() { r.Release(1) }
	wait := func() {
		r.AcquireAsync(1, release)
		for i := 0; i < 8; i++ {
			if r.AcquireAsync(1, release) {
				t.Fatal("a held resource granted at once")
			}
		}
		r.Release(1)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	wait()
	if n := testing.AllocsPerRun(50, wait); n != 0 {
		t.Errorf("nine waits on a warm queue allocate %.1f times, want 0", n)
	}
}

// takeScript is a seeded arrival schedule for one bucket: who asks for
// how much, when. Amounts go above the burst (the bucket overdraws) and
// below one.
type takeScript struct {
	rate, burst float64
	at          []time.Duration
	n           []float64
}

func genTakeScript(r *rand.Rand) takeScript {
	sc := takeScript{rate: 50 + 2000*r.Float64(), burst: float64(1 + r.Intn(6))}
	var at time.Duration
	for i, k := 0, 1+r.Intn(40); i < k; i++ {
		if r.Intn(3) != 0 { // else together with the previous one
			at += time.Duration(r.Intn(8000)) * time.Microsecond
		}
		n := float64(1 + r.Intn(3))
		switch r.Intn(6) {
		case 0:
			n = sc.burst + float64(1+r.Intn(4)) // overdraw
		case 1:
			n = r.Float64()
		}
		sc.at, sc.n = append(sc.at, at), append(sc.n, n)
	}
	return sc
}

// run plays the script with taker i a process (take) or a callback
// (TakeAsync) as async(i) says, and returns each grant's instant and the
// bucket's level right after it, in grant order, and how many grants had
// to wait.
func (sc takeScript) run(t *testing.T, async func(i int) bool) (log []string, late int) {
	s := New(7)
	tb := NewTokenBucket(s, sc.rate, sc.burst)
	granted := func(i int) {
		log = append(log, fmt.Sprintf("#%d @%d level %.9f", i, s.Now(), tb.tokens))
		if s.Now() > sc.at[i] {
			late++
		}
	}
	waiters := make([]TokenWaiter, len(sc.at))
	for i := range sc.at {
		// Every taker arrives as a process waking from its sleep, so that
		// arrivals of one instant come in the same order in every run; a
		// callback taker's process then leaves the take to its callback.
		s.Spawn(fmt.Sprintf("taker%02d", i), func(p *Proc) {
			p.Sleep(sc.at[i])
			if !async(i) {
				take(tb, p, sc.n[i])
				granted(i)
			} else if tb.TakeAsync(&waiters[i], sc.n[i], func() { granted(i) }) {
				granted(i)
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if tb.gate.InUse() != 0 || tb.gate.Queued() != 0 {
		t.Fatalf("gate left held (%d) or queued (%d)", tb.gate.InUse(), tb.gate.Queued())
	}
	return log, late
}

// TestTakeAsyncMatchesTake plays seeded arrival schedules three times:
// every taker a process, every taker a callback, and the two kinds
// interleaved. Grants must come in the same order at the same instants
// and leave the same level behind, overdraws above the burst included.
func TestTakeAsyncMatchesTake(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	var waited, overdrawn int
	for i := 0; i < 300; i++ {
		sc := genTakeScript(r)
		want, late := sc.run(t, func(int) bool { return false })
		waited += late
		for name, async := range map[string]func(int) bool{
			"callbacks":   func(int) bool { return true },
			"interleaved": func(i int) bool { return i%2 == 0 },
		} {
			if got, _ := sc.run(t, async); !slices.Equal(got, want) {
				for j := range want {
					if j >= len(got) || got[j] != want[j] {
						t.Fatalf("script %d, %s: grant %d is %q, processes had %q", i, name, j, got[min(j, len(got)-1)], want[j])
					}
				}
				t.Fatalf("script %d, %s: %d grants, processes had %d", i, name, len(got), len(want))
			}
		}
		for _, n := range sc.n {
			if n > sc.burst {
				overdrawn++
			}
		}
	}
	if waited == 0 || overdrawn == 0 {
		t.Fatalf("the scripts no longer reach waits (%d) or overdraws (%d)", waited, overdrawn)
	}
}

// chainRun is a minimal request: a process takes a token through the
// callback form, and the callback that has it arms the process's wake a
// latency later. stray, if positive, is when somebody wakes the process
// for no reason.
func chainRun(t *testing.T, stray time.Duration) (resumed time.Duration, fired int64) {
	s := New(1)
	tb := NewTokenBucket(s, 10, 1) // a token every 100 ms
	const latency = 15 * time.Millisecond
	var w0, w1 TokenWaiter
	tb.TakeAsync(&w0, 1, nil) // the burst is gone
	caller := s.Spawn("caller", func(p *Proc) {
		handed := false
		if tb.TakeAsync(&w1, 1, func() { handed = true; p.WakeAfter(latency) }) {
			t.Error("token granted from an empty bucket")
		}
		for !handed {
			p.Park()
		}
		// handed was set with the wake armed, not fired: the process is
		// only here once it has.
		resumed = p.Now()
	})
	if stray > 0 {
		s.Schedule(stray, func() { caller.Wake() })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return resumed, s.Fired()
}

// TestStrayWakeDuringChainCostsOneEvent wakes a process whose request
// is mid-chain. It must go back to sleep and resume when it would have:
// the stray wake is one more event and nothing else. Once the chain has
// armed the process's wake, a stray Wake is not even that.
func TestStrayWakeDuringChainCostsOneEvent(t *testing.T) {
	resumed, fired := chainRun(t, 0)
	if want := 115 * time.Millisecond; resumed != want {
		t.Fatalf("undisturbed chain resumed its caller at %v, want %v", resumed, want)
	}
	for _, tc := range []struct {
		name  string
		at    time.Duration
		extra int64
	}{
		{"during the deficit wait", 40 * time.Millisecond, 1},
		{"during the armed latency", 105 * time.Millisecond, 0},
	} {
		// The stray Wake itself is a scheduled callback: one event more
		// in both cases.
		r, f := chainRun(t, tc.at)
		if r != resumed {
			t.Errorf("stray wake %s: caller resumed at %v, want %v", tc.name, r, resumed)
		}
		if f != fired+1+tc.extra {
			t.Errorf("stray wake %s: %d events, want %d", tc.name, f, fired+1+tc.extra)
		}
	}
}

// TestWakeAfterSupersedesPendingWake arms the wake of a process whose
// stray wake is already on the heap: the stray one is withdrawn, the
// process sleeps on to the armed instant and nothing is left behind to
// wake it a second time.
func TestWakeAfterSupersedesPendingWake(t *testing.T) {
	s := New(1)
	var woke []time.Duration
	p := s.Spawn("sleeper", func(p *Proc) {
		p.Park()
		woke = append(woke, p.Now())
		p.Sleep(time.Second)
		woke = append(woke, p.Now())
	})
	s.Schedule(time.Millisecond, func() {
		p.Wake()
		p.WakeAfter(10 * time.Millisecond)
		p.Wake() // pending: no-op
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []time.Duration{11 * time.Millisecond, 1011 * time.Millisecond}; !slices.Equal(woke, want) {
		t.Errorf("woke at %v, want %v", woke, want)
	}
	p.WakeAfter(0) // finished: nothing to arm
	if s.Pending() != 0 {
		t.Errorf("WakeAfter on a finished process scheduled an event")
	}
}

// TestLinkStartFromCallbackWakesParkedProcess starts a flow for a
// process from a callback while the process is parked: it resumes when
// Transfer would have resumed it, and a stray wake on the way does not
// release it early.
func TestLinkStartFromCallbackWakesParkedProcess(t *testing.T) {
	s := New(1)
	l := NewLink(s, 1e6)
	var f *Flow
	var done time.Duration
	p := s.Spawn("sender", func(p *Proc) {
		for f == nil || !l.Collect(f) {
			p.Park()
		}
		done = p.Now()
	})
	s.Schedule(time.Second, func() { f = l.Start(p, 500_000, 0) })
	s.Schedule(1200*time.Millisecond, func() { p.Wake() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := 1500 * time.Millisecond; done != want {
		t.Errorf("transfer seen done at %v, want %v", done, want)
	}
	if l.Transfers() != 1 || l.ActiveFlows() != 0 || len(l.free) != 1 {
		t.Errorf("link after the transfer: %d done, %d active, %d flows recycled", l.Transfers(), l.ActiveFlows(), len(l.free))
	}
	if l.Start(p, 0, 0) != nil || !l.Collect(nil) {
		t.Error("a zero-byte Start made a flow, or Collect has one to wait for")
	}
}

// TestAwaitMatchesSleepingThroughTheWaits runs one chain of three waits
// (sleeps of 1, 2 and 3 ms, the last ending the Await) two ways: as a
// process sleeping through them, and as a callback the process hands
// its wakes to. Both finish at 6 ms on the same events; the chain runs
// four times (once at once, once a wait) and the process never leaves
// Await in between. A chain done before its first wait returns at once.
func TestAwaitMatchesSleepingThroughTheWaits(t *testing.T) {
	waits := []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	run := func(chained bool) (end time.Duration, fired int64, calls int) {
		s := New(1)
		s.Spawn("worker", func(p *Proc) {
			if !chained {
				for _, d := range waits {
					p.Sleep(d)
				}
			} else {
				i := 0
				p.Await(func() {
					calls++
					if i == len(waits) {
						p.Resume()
						return
					}
					p.WakeAfter(waits[i])
					i++
				})
			}
			end = p.Now()
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return end, s.Fired(), calls
	}
	end, fired, _ := run(false)
	cEnd, cFired, calls := run(true)
	if cEnd != end || cFired != fired || end != 6*time.Millisecond {
		t.Errorf("chain ends at %v after %d events, sleeping at %v after %d", cEnd, cFired, end, fired)
	}
	if calls != len(waits)+1 {
		t.Errorf("the chain ran %d times, want %d", calls, len(waits)+1)
	}
	s := New(1)
	s.Spawn("quick", func(p *Proc) {
		p.Await(p.Resume)
		if p.Now() != 0 || s.Fired() != 1 {
			t.Errorf("a chain with no wait cost an event or time: %v, %d fired", p.Now(), s.Fired())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestAwaitWaitDiesWithItsProcess kills a process at a horizon while its
// chain waits on the process's wake: the wait is cancelled with the
// process, nothing of the chain runs in the resumed run, a later Wake
// finds a finished process, and Gone tells a callback that outlives it.
func TestAwaitWaitDiesWithItsProcess(t *testing.T) {
	s := New(1)
	calls, gone := 0, false
	p := s.Spawn("worker", func(p *Proc) {
		p.Await(func() {
			calls++
			gone = gone || p.Gone()
			p.WakeAfter(time.Second)
		})
		t.Errorf("the killed process came back from Await")
	})
	s.Schedule(3*time.Second, func() {})
	if err := s.RunUntil(1500 * time.Millisecond); !errors.Is(err, ErrSimLimit) {
		t.Fatalf("RunUntil: %v", err)
	}
	if gone || !p.Gone() {
		t.Errorf("Gone read %v while the chain ran and %v once killed, want false and true", gone, p.Gone())
	}
	p.Wake()
	if err := s.Run(); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if calls != 2 || s.Fired() != 3 || s.Now() != 3*time.Second {
		t.Errorf("chain ran %d times, %d events fired, run ended at %v; want 2, 3 (spawn, the first wait, the bystander) at 3s",
			calls, s.Fired(), s.Now())
	}
}

// TestAwaitedWakeLeavesNoHandle: a wake an Await's chain runs at is spent
// once it fires, and the process holds no handle to it. The chain, and a
// grant that arms the next wait from another callback as a store
// request's throttle does, find the process with no wake or a pending
// one, so WakeAfter schedules afresh instead of moving a handle that
// already fired; a stray Wake between the waits is spent the same way.
// The run ends where sleeping through the same waits would.
func TestAwaitedWakeLeavesNoHandle(t *testing.T) {
	s := New(1)
	var bad []string // appended from the callbacks, off the test's goroutine
	check := func(p *Proc, where string) {
		if p.wake != (Event{}) && !p.wake.pending() {
			bad = append(bad, fmt.Sprintf("%s at %v: the process holds a spent wake", where, p.Now()))
		}
	}
	granted := false
	var end time.Duration
	p := s.Spawn("requester", func(p *Proc) {
		step := 0
		p.Await(func() {
			check(p, "chain")
			switch {
			case step == 0: // the request latency
				step++
				p.WakeAfter(time.Millisecond)
			case step == 1: // the latency is over: wait for the grant
				step++
			case granted: // the body the grant armed
				p.Resume()
			}
		})
		check(p, "after Await")
		p.Sleep(time.Millisecond)
		end = p.Now()
	})
	s.Schedule(2*time.Millisecond, func() { p.Wake() }) // stray
	s.Schedule(3*time.Millisecond, func() {
		check(p, "grant")
		granted = true
		p.WakeAfter(time.Millisecond)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, b := range bad {
		t.Error(b)
	}
	// Spawn, the latency, the stray Wake and the wake it scheduled, the
	// grant, the body, the sleep.
	if end != 5*time.Millisecond || s.Fired() != 7 {
		t.Errorf("ended at %v after %d events, want 5ms after 7", end, s.Fired())
	}
}
