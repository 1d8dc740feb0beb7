package des

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/des/destest"
)

// The tests in this file pin the baton-passing control flow: who runs
// the event loop, when a goroutine switch happens and when it must
// not, what a reused goroutine means for stale handles, and that every
// way out of Run leaves nothing behind.

// leakCheck is the teardown check. Call it before the first Spawn and
// call the result after each Run or RunUntil returns, by whatever
// path: no live processes, no idle goroutines kept, no activation left
// dangling, and the goroutine count back where it started.
func leakCheck(t *testing.T) func(s *Sim) {
	t.Helper()
	goroutines := destest.NoLeakedGoroutines(t)
	return func(s *Sim) {
		t.Helper()
		if s.liveHead != nil || s.liveTail != nil {
			t.Error("live processes after Run")
		}
		if n := len(s.idle); n != 0 {
			t.Errorf("%d idle goroutines kept after Run", n)
		}
		if s.next != nil {
			t.Errorf("activation of %q left pending after Run", s.next.name())
		}
		goroutines()
	}
}

// TestCallbackPanic: a panic in a scheduled callback is a *PanicError
// from Run that names no process, every process is unwound and no
// goroutine is left, whichever goroutine happened to hold the baton
// when the callback fired.
func TestCallbackPanic(t *testing.T) {
	sleepers := func(s *Sim) {
		for i := 0; i < 5; i++ {
			s.Spawn(fmt.Sprintf("sleeper-%d", i), func(p *Proc) { p.Sleep(time.Hour) })
		}
	}
	for _, tc := range []struct {
		name  string
		build func(s *Sim)
	}{
		{"run goroutine holds the baton", func(s *Sim) {
			// The callback is the first event: no process has run yet.
			s.Schedule(0, func() { panic("boom") })
			sleepers(s)
		}},
		{"suspended process holds the baton", func(s *Sim) {
			// sleeper-4 is the last to suspend, so it fires the callback.
			sleepers(s)
			s.Schedule(time.Second, func() { panic("boom") })
		}},
		{"finished process holds the baton", func(s *Sim) {
			// quick runs after the sleepers and finishes at once: its
			// goroutine, already on the idle list, fires the callback.
			sleepers(s)
			s.Spawn("quick", func(p *Proc) {})
			s.Schedule(time.Second, func() { panic("boom") })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leaks := leakCheck(t)
			s := New(1)
			tc.build(s)
			err := runWithWatchdog(t, s.Run)
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("Run = %v, want PanicError", err)
			}
			if pe.Proc != callbackPanic || pe.Value != "boom" {
				t.Errorf("PanicError{%q, %v}, want {%q, boom}", pe.Proc, pe.Value, callbackPanic)
			}
			leaks(s)
			// The error sticks, as a process panic does.
			if again := s.Run(); again != err {
				t.Errorf("second Run = %v, want the same error", again)
			}
			leaks(s)
		})
	}
}

// TestKillOrderIsSpawnOrder: a stop unwinds live processes oldest
// first, so their deferred functions run in the same order every time.
func TestKillOrderIsSpawnOrder(t *testing.T) {
	const n = 50
	var want []string
	for i := 0; i < n; i++ {
		want = append(want, fmt.Sprintf("p%02d", i))
	}
	for run := 0; run < 20; run++ {
		leaks := leakCheck(t)
		s := New(1)
		var log []string
		for i, name := range want {
			i, name := i, name
			s.Spawn(name, func(p *Proc) {
				defer func() { log = append(log, name) }()
				// Park in the reverse of spawn order.
				p.Sleep(time.Duration(n-i) * time.Second)
				p.Park()
			})
		}
		s.Schedule(time.Hour, func() {})
		if err := s.RunUntil(time.Minute); !errors.Is(err, ErrSimLimit) {
			t.Fatalf("RunUntil = %v, want ErrSimLimit", err)
		}
		leaks(s)
		if !reflect.DeepEqual(log, want) {
			t.Fatalf("run %d: unwind order %v, want spawn order", run, log)
		}
	}
}

// TestSleepSelfWakeSwitchesNothing: a process whose own wake is the
// next event fires it and carries on: no allocation, no handoff.
func TestSleepSelfWakeSwitchesNothing(t *testing.T) {
	leaks := leakCheck(t)
	s := New(1)
	s.Spawn("lone", func(p *Proc) {
		p.Sleep(time.Microsecond) // first use grows the heap and slot table
		before := s.handoffs
		allocs := testing.AllocsPerRun(5, func() {
			for i := 0; i < 1000; i++ {
				p.Sleep(time.Microsecond)
			}
		})
		if allocs != 0 {
			t.Errorf("1000 self-waking sleeps allocated %v times", allocs)
		}
		if d := s.handoffs - before; d != 0 {
			t.Errorf("1000 self-waking sleeps handed the baton over %d times", d)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.handoffs != 2 { // Run -> lone, lone -> Run
		t.Errorf("handoffs = %d, want 2", s.handoffs)
	}
	leaks(s)
}

// TestFinishingProcHandsBatonOn: a process that finishes fires the next
// event itself and wakes the parked process directly, without a trip
// through Run's goroutine.
func TestFinishingProcHandsBatonOn(t *testing.T) {
	leaks := leakCheck(t)
	s := New(1)
	var order []string
	a := s.Spawn("a", func(p *Proc) {
		order = append(order, "a parks")
		p.Park()
		order = append(order, "a woke")
	})
	s.Spawn("b", func(p *Proc) {
		order = append(order, "b wakes a")
		a.Wake()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := []string{"a parks", "b wakes a", "a woke"}; !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
	if s.handoffs != 4 { // Run -> a -> b -> a -> Run
		t.Errorf("handoffs = %d, want 4", s.handoffs)
	}
	leaks(s)
}

// TestFinishedGoroutineRunsNextProcItself: the goroutine of a finished
// process is driving the loop when a callback spawns onto it and that
// process's activation is the next event. It must carry on as the new
// process, not send to itself.
func TestFinishedGoroutineRunsNextProcItself(t *testing.T) {
	leaks := leakCheck(t)
	s := New(1)
	x := s.Spawn("x", func(p *Proc) {})
	var y *Proc
	ran := false
	s.Schedule(time.Second, func() {
		y = s.Spawn("y", func(p *Proc) {
			p.Sleep(time.Second)
			ran = true
		})
	})
	if err := runWithWatchdog(t, s.Run); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran {
		t.Fatal("y never ran")
	}
	if y == x || y.w != x.w {
		t.Errorf("y did not reuse x's goroutine under a fresh Proc")
	}
	if s.handoffs != 2 { // Run -> x's goroutine -> Run
		t.Errorf("handoffs = %d, want 2", s.handoffs)
	}
	leaks(s)
}

// TestStaleProcOnReusedGoroutine: x is finished and its goroutine now
// runs y. Wake on the stale handle must not reach y.
func TestStaleProcOnReusedGoroutine(t *testing.T) {
	leaks := leakCheck(t)
	s := New(1)
	x := s.Spawn("x", func(p *Proc) {})
	var y *Proc
	woke := false
	s.Schedule(1*time.Second, func() {
		y = s.Spawn("y", func(p *Proc) {
			p.Park()
			woke = true
		})
	})
	s.Schedule(2*time.Second, func() {
		if y.w != x.w {
			t.Errorf("y is not on x's goroutine: the test proves nothing")
		}
		x.Wake()
		x.Wake()
	})
	s.Schedule(3*time.Second, func() {
		if woke {
			t.Errorf("Wake on the stale x woke y")
		}
		if x.wake.pending() {
			t.Errorf("Wake on the stale x scheduled an event")
		}
		y.Wake()
	})
	if err := runWithWatchdog(t, s.Run); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !woke {
		t.Error("y was never woken")
	}
	leaks(s)
}

// TestKilledBeforeRunOnPooledGoroutine: processes spawned onto idle
// goroutines (the one driving the loop and one blocked on the idle
// list) and killed by MaxEvents before their activation fires never
// run their body, leak nothing, and leave a Sim that still drains.
func TestKilledBeforeRunOnPooledGoroutine(t *testing.T) {
	leaks := leakCheck(t)
	s := New(1)
	x1 := s.Spawn("x1", func(p *Proc) {})
	x2 := s.Spawn("x2", func(p *Proc) {})
	ran := 0
	var y1, y2 *Proc
	s.Schedule(time.Second, func() {
		y1 = s.Spawn("y1", func(p *Proc) { ran++ })
		y2 = s.Spawn("y2", func(p *Proc) { ran++ })
	})
	s.MaxEvents = 3 // x1, x2, the callback; not y1's or y2's activation
	if err := runWithWatchdog(t, s.Run); !errors.Is(err, ErrSimLimit) {
		t.Fatalf("Run = %v, want ErrSimLimit", err)
	}
	if y1.w != x2.w || y2.w != x1.w {
		t.Errorf("y1, y2 did not take the idle goroutines of x2 (driving), x1 (blocked)")
	}
	leaks(s)
	s.MaxEvents = 0
	if err := runWithWatchdog(t, s.Run); err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	if ran != 0 {
		t.Errorf("%d killed processes ran their body after resumption", ran)
	}
	leaks(s)
}

// TestRunUntilThreeHorizonsWithPool stops a run at a horizon three
// times. Each leg churns short-lived processes through the idle list
// and is cut with one process asleep; every stop must release the
// pool, and the next leg must start a fresh one.
func TestRunUntilThreeHorizonsWithPool(t *testing.T) {
	leaks := leakCheck(t)
	s := New(1)
	served := 0
	leg := func(tag string) {
		s.Spawn(tag+"/arrivals", func(p *Proc) {
			for i := 0; i < 100; i++ {
				p.Spawn(fmt.Sprintf("%s/job%d", tag, i), func(j *Proc) {
					j.Sleep(3 * time.Millisecond)
					served++
				})
				p.Sleep(time.Millisecond)
			}
			p.Sleep(time.Hour) // cut by the horizon
			t.Errorf("%s/arrivals outlived its horizon", tag)
		})
	}
	leg("a")
	s.Schedule(10*time.Second, func() { leg("b") })
	s.Schedule(20*time.Second, func() { leg("c") })
	s.Schedule(30*time.Second, func() {})
	for i, limit := range []time.Duration{5 * time.Second, 15 * time.Second, 25 * time.Second} {
		if err := runWithWatchdog(t, func() error { return s.RunUntil(limit) }); !errors.Is(err, ErrSimLimit) {
			t.Fatalf("RunUntil(%v) = %v, want ErrSimLimit", limit, err)
		}
		if want := 100 * (i + 1); served != want {
			t.Fatalf("after horizon %v served = %d, want %d", limit, served, want)
		}
		leaks(s)
	}
	if err := runWithWatchdog(t, s.Run); err != nil {
		t.Fatalf("final Run: %v", err)
	}
	if s.Now() != 30*time.Second {
		t.Errorf("Now = %v, want 30s", s.Now())
	}
	leaks(s)
}

// TestIdleListIsBounded: a burst of processes that all finish leaves at
// most maxIdle goroutines waiting for reuse; the rest exit as they
// finish.
func TestIdleListIsBounded(t *testing.T) {
	leaks := leakCheck(t)
	s := New(1)
	peak := 0
	for i := 0; i < 2*maxIdle; i++ {
		s.Spawn("burst", func(p *Proc) {})
	}
	s.Schedule(time.Second, func() { peak = len(s.idle) })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if peak != maxIdle {
		t.Errorf("idle goroutines after a burst of %d = %d, want %d", 2*maxIdle, peak, maxIdle)
	}
	leaks(s)
}
