package des

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestScheduleFiresInTimeOrder(t *testing.T) {
	s := New(1)
	var got []int
	s.Schedule(3*time.Second, func() { got = append(got, 3) })
	s.Schedule(1*time.Second, func() { got = append(got, 1) })
	s.Schedule(2*time.Second, func() { got = append(got, 2) })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order = %v, want %v", got, want)
		}
	}
}

func TestSameInstantEventsFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Second, func() { got = append(got, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant order = %v, want ascending", got)
		}
	}
}

func TestNowAdvancesToEventTime(t *testing.T) {
	s := New(1)
	var at time.Duration
	s.Schedule(5*time.Second, func() { at = s.Now() })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 5*time.Second {
		t.Fatalf("Now at fire = %v, want 5s", at)
	}
}

func TestEventCancel(t *testing.T) {
	s := New(1)
	fired := false
	ev := s.Schedule(time.Second, func() { fired = true })
	ev.Cancel()
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestSchedulePastClampsToNow(t *testing.T) {
	s := New(1)
	var fireAt time.Duration
	s.Schedule(2*time.Second, func() {
		s.Schedule(time.Second, func() { fireAt = s.Now() }) // in the past
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fireAt != 2*time.Second {
		t.Fatalf("past-scheduled event fired at %v, want clamp to 2s", fireAt)
	}
}

func TestProcSleepAdvancesClock(t *testing.T) {
	s := New(1)
	var end time.Duration
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10 * time.Second)
		p.Sleep(5 * time.Second)
		end = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if end != 15*time.Second {
		t.Fatalf("end = %v, want 15s", end)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		s := New(7)
		var trace []string
		for i := 0; i < 5; i++ {
			i := i
			s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(time.Duration(i+1) * time.Second)
					trace = append(trace, fmt.Sprintf("%s@%v", p.name(), p.Now()))
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != 15 || len(b) != 15 {
		t.Fatalf("trace lengths = %d, %d, want 15", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic trace at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestSpawnFromProcess(t *testing.T) {
	s := New(1)
	var childRan bool
	s.Spawn("parent", func(p *Proc) {
		p.Sleep(time.Second)
		p.Spawn("child", func(c *Proc) {
			c.Sleep(time.Second)
			childRan = true
		})
		p.Sleep(5 * time.Second)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !childRan {
		t.Fatal("child never ran")
	}
}

func TestNegativeSleepStillYields(t *testing.T) {
	s := New(1)
	var order []string
	s.Spawn("a", func(p *Proc) {
		p.Sleep(-time.Second)
		order = append(order, "a")
	})
	s.Spawn("b", func(p *Proc) {
		order = append(order, "b")
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// b's start was already on the heap at that instant, so it runs
	// before a's wake even though a could have fired its own wake.
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("order = %v, want [b a]", order)
	}
}

func TestDeadlockDetected(t *testing.T) {
	s := New(1)
	s.Spawn("stuck", func(p *Proc) {
		p.Park() // no one will wake us
	})
	err := s.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	if len(dl.Parked) != 1 || dl.Parked[0] != "stuck" {
		t.Fatalf("Parked = %v, want [stuck]", dl.Parked)
	}
}

func TestPanicPropagates(t *testing.T) {
	s := New(1)
	s.Spawn("bomber", func(p *Proc) {
		p.Sleep(time.Second)
		panic("boom")
	})
	err := s.Run()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run = %v, want PanicError", err)
	}
	if pe.Proc != "bomber" {
		t.Fatalf("Proc = %q, want bomber", pe.Proc)
	}
}

func TestPanicUnwindsOtherProcs(t *testing.T) {
	leaks := leakCheck(t)
	s := New(1)
	s.Spawn("bomber", func(p *Proc) { panic("boom") })
	s.Spawn("bystander", func(p *Proc) { p.Sleep(time.Hour) })
	err := s.Run()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run = %v, want PanicError", err)
	}
	leaks(s)
}

func TestRunUntilHorizon(t *testing.T) {
	s := New(1)
	var late bool
	s.Schedule(time.Second, func() {})
	s.Schedule(time.Hour, func() { late = true })
	err := s.RunUntil(time.Minute)
	if !errors.Is(err, ErrSimLimit) {
		t.Fatalf("Run = %v, want ErrSimLimit", err)
	}
	if late {
		t.Fatal("event beyond horizon fired")
	}
	if s.Now() != time.Minute {
		t.Fatalf("Now = %v, want clamp to horizon", s.Now())
	}
}

func TestMaxEventsLimit(t *testing.T) {
	s := New(1)
	s.MaxEvents = 10
	var count int
	var reschedule func()
	reschedule = func() {
		count++
		s.After(time.Second, reschedule)
	}
	s.After(time.Second, reschedule)
	err := s.Run()
	if !errors.Is(err, ErrSimLimit) {
		t.Fatalf("Run = %v, want ErrSimLimit", err)
	}
	if count > 10 {
		t.Fatalf("fired %d events, want <= 10", count)
	}
}

func TestWakeIsIdempotent(t *testing.T) {
	s := New(1)
	var woke int
	var target *Proc
	target = s.Spawn("target", func(p *Proc) {
		p.Park()
		woke++
	})
	s.Spawn("waker", func(p *Proc) {
		p.Sleep(time.Second)
		target.Wake()
		target.Wake() // double wake must be harmless
		target.Wake()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if woke != 1 {
		t.Fatalf("woke = %d, want 1", woke)
	}
}

func TestWakeFinishedProcIsNoop(t *testing.T) {
	s := New(1)
	done := s.Spawn("quick", func(p *Proc) {})
	s.Spawn("waker", func(p *Proc) {
		p.Sleep(time.Second)
		done.Wake() // must not panic or deadlock
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestWaitGroupBasic(t *testing.T) {
	s := New(1)
	wg := NewWaitGroup(s)
	var finished int
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		s.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(time.Duration(i+1) * time.Second)
			finished++
			wg.Done()
		})
	}
	var joinedAt time.Duration
	s.Spawn("joiner", func(p *Proc) {
		wg.Wait(p)
		joinedAt = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if finished != 4 {
		t.Fatalf("finished = %d, want 4", finished)
	}
	if joinedAt != 4*time.Second {
		t.Fatalf("joined at %v, want 4s (last worker)", joinedAt)
	}
}

func TestWaitGroupAlreadyZero(t *testing.T) {
	s := New(1)
	var wg WaitGroup // the zero value is an empty wait group
	ran := false
	s.Spawn("joiner", func(p *Proc) {
		wg.Wait(p) // zero counter: must not block
		ran = true
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran {
		t.Fatal("joiner blocked on zero wait group")
	}
}

func TestRNGDeterminism(t *testing.T) {
	draw := func(seed int64) []int64 {
		s := New(seed)
		out := make([]int64, 5)
		s.Spawn("draw", func(p *Proc) {
			for i := range out {
				out[i] = p.Rand().Int63()
			}
		})
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return out
	}
	a, b := draw(42), draw(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different draws")
		}
	}
	c := draw(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical draws")
	}
}
