package des

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// The tests in this file pin the kernel's slot-recycling and
// resumption semantics: the properties that make value Event handles
// safe to hold forever and RunUntil safe to call repeatedly.

// TestCancelAfterSlotRecycle holds a handle across its slot's reuse:
// once the first event fires, its slot goes back on the free list and
// the next Schedule takes it over. The stale handle's generation no
// longer matches, so Cancel must be a no-op against the new tenant.
func TestCancelAfterSlotRecycle(t *testing.T) {
	s := New(1)
	var second bool
	e1 := s.Schedule(time.Second, func() {})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	e2 := s.Schedule(2*time.Second, func() { second = true })
	if e2.slot != e1.slot {
		t.Fatalf("second event took slot %d, want recycled slot %d", e2.slot, e1.slot)
	}
	e1.Cancel() // stale: must not touch e2
	if at := e1.At(); at != 0 {
		t.Fatalf("stale handle At() = %v, want 0", at)
	}
	if at := e2.At(); at != 2*time.Second {
		t.Fatalf("live handle At() = %v, want 2s", at)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !second {
		t.Fatal("event sharing a recycled slot was killed by a stale Cancel")
	}
}

// TestZeroEventIsInert exercises the documented zero-value contract.
func TestZeroEventIsInert(t *testing.T) {
	var e Event
	e.Cancel()
	if at := e.At(); at != 0 {
		t.Fatalf("zero Event At() = %v, want 0", at)
	}
}

// TestRunUntilResumes drives the horizon forward in steps: an event
// beyond one horizon must survive on the heap and fire under the next.
// (A pop-then-check loop would silently drop the first event past each
// horizon; the kernel peeks before popping.)
func TestRunUntilResumes(t *testing.T) {
	leaks := leakCheck(t)
	s := New(1)
	var fired []time.Duration
	for _, at := range []time.Duration{time.Second, time.Minute, time.Hour} {
		at := at
		s.Schedule(at, func() { fired = append(fired, at) })
	}
	if err := s.RunUntil(2 * time.Second); !errors.Is(err, ErrSimLimit) {
		t.Fatalf("RunUntil(2s) = %v, want ErrSimLimit", err)
	}
	if len(fired) != 1 || fired[0] != time.Second {
		t.Fatalf("after first horizon fired = %v, want [1s]", fired)
	}
	if err := s.RunUntil(30 * time.Minute); !errors.Is(err, ErrSimLimit) {
		t.Fatalf("RunUntil(30m) = %v, want ErrSimLimit", err)
	}
	if len(fired) != 2 || fired[1] != time.Minute {
		t.Fatalf("after second horizon fired = %v, want [1s 1m]", fired)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("final Run: %v", err)
	}
	if len(fired) != 3 || fired[2] != time.Hour {
		t.Fatalf("after final run fired = %v, want [1s 1m 1h]", fired)
	}
	if s.Now() != time.Hour {
		t.Fatalf("Now = %v, want 1h", s.Now())
	}
	leaks(s)
}

// runWithWatchdog runs fn, failing the test after a wall-clock timeout
// instead of hanging the whole suite — the failure mode under test is
// a kernel that blocks forever.
func runWithWatchdog(t *testing.T, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("run did not complete: kernel hung (orphaned wake event?)")
		return nil
	}
}

// TestRunUntilResumesPastKilledSleeper pins the interaction between the
// two shutdown contracts: RunUntil leaves past-horizon events on the
// heap for resumption, while killLive unwinds every suspended process.
// A killed sleeper's wake event must not survive to a later run — if it
// did, its activate() would block forever sending to a goroutine that
// no longer exists. Bare events past the horizon must still resume.
func TestRunUntilResumesPastKilledSleeper(t *testing.T) {
	leaks := leakCheck(t)
	s := New(1)
	var awoke, lateFired bool
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10 * time.Second)
		awoke = true
	})
	s.Schedule(8*time.Second, func() { lateFired = true })
	if err := s.RunUntil(5 * time.Second); !errors.Is(err, ErrSimLimit) {
		t.Fatalf("RunUntil(5s) = %v, want ErrSimLimit", err)
	}
	leaks(s)
	if err := runWithWatchdog(t, s.Run); err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	if awoke {
		t.Fatal("killed sleeper's body ran after resumption")
	}
	if !lateFired {
		t.Fatal("bare event past the horizon was dropped")
	}
	leaks(s)
}

// TestMaxEventsKillsSleeperWake is the same orphaned-wake hazard via
// the MaxEvents limit path: the limit trips with a process asleep, and
// a later Run must drain cleanly rather than activating the corpse.
func TestMaxEventsKillsSleeperWake(t *testing.T) {
	leaks := leakCheck(t)
	s := New(1)
	var awoke bool
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(time.Second) // spawn activation counts as event #1
		awoke = true
	})
	s.Schedule(0, func() {})
	s.MaxEvents = 2
	if err := s.Run(); !errors.Is(err, ErrSimLimit) {
		t.Fatalf("Run with MaxEvents=2 = %v, want ErrSimLimit", err)
	}
	leaks(s)
	s.MaxEvents = 0
	if err := runWithWatchdog(t, s.Run); err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	if awoke {
		t.Fatal("killed sleeper's body ran after resumption")
	}
	leaks(s)
}

// TestMassCancelKeepsSurvivorOrder cancels most of a large heap: each
// cancel takes its entry out where it sits, so only the survivors are
// left on the heap, and they still fire in exact (at, seq) order.
func TestMassCancelKeepsSurvivorOrder(t *testing.T) {
	s := New(1)
	const n = 4096
	handles := make([]Event, n)
	var fired []int
	for i := 0; i < n; i++ {
		i := i
		handles[i] = s.Schedule(time.Duration(i)*time.Millisecond, func() { fired = append(fired, i) })
	}
	for i := 0; i < n; i++ {
		if i%8 != 3 { // keep every 8th
			handles[i].Cancel()
		}
	}
	if p := s.Pending(); p != n/8 {
		t.Fatalf("Pending = %d after mass cancel, want %d", p, n/8)
	}
	if len(s.heap) != n/8 {
		t.Fatalf("heap holds %d entries after mass cancel, want the %d survivors", len(s.heap), n/8)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fired) != n/8 {
		t.Fatalf("fired %d events, want %d", len(fired), n/8)
	}
	for j, i := range fired {
		if want := j*8 + 3; i != want {
			t.Fatalf("fired[%d] = %d, want %d (order broken by the removals)", j, i, want)
		}
	}
}

// TestHeapHoldsOnlyLiveEntries drives random Schedules (due now and
// later, from the test and from callbacks), Cancels, moves, horizons
// (some behind the clock, which carry the ring onto the heap) and
// MaxEvents stops in the middle of an instant. After every operation
// each heap entry's slot is live and records the entry's index, the
// 4-ary heap property holds, the ring's dead entries are all the
// kernel counts as canceled, and Pending is the number of live handles.
func TestHeapHoldsOnlyLiveEntries(t *testing.T) {
	s := New(1)
	r := rand.New(rand.NewSource(49))
	var evs []Event
	check := func(op string) {
		t.Helper()
		for i, ent := range s.heap {
			sl := &s.slots[ent.slot()]
			if sl.fire == nil || sl.at != ent.at || sl.pos != int32(i) {
				t.Fatalf("after %s: heap[%d] has slot %d at=%v pos=%d", op, i, ent.slot(), sl.at, sl.pos)
			}
			if i > 0 && entLess(ent, s.heap[(i-1)>>2]) {
				t.Fatalf("after %s: heap[%d] is less than its parent", op, i)
			}
		}
		dead := 0
		for i := 0; i < s.due.n; i++ {
			switch pos := s.slots[keySlot(s.due.at(i))].pos; pos {
			case posDead:
				dead++
			case posRing:
			default:
				t.Fatalf("after %s: ring entry %d has pos %d", op, i, pos)
			}
		}
		live := 0
		for _, e := range evs {
			if e.pending() {
				live++
			}
		}
		if dead != s.canceled || s.Pending() != live {
			t.Fatalf("after %s: %d dead in the ring, canceled %d; Pending %d, %d live handles, heap %d, ring %d",
				op, dead, s.canceled, s.Pending(), live, len(s.heap), s.due.n)
		}
	}
	delay := func() time.Duration {
		if r.Intn(3) == 0 {
			return 0
		}
		return time.Duration(r.Intn(50) + 1)
	}
	var op func(inCallback bool)
	op = func(inCallback bool) {
		switch k := r.Intn(10); {
		case k < 4:
			evs = append(evs, s.Schedule(s.Now()+delay(), func() {
				check("fire")
				for n := r.Intn(3); n > 0; n-- {
					op(true)
				}
			}))
			check("schedule")
		case k < 6 && len(evs) > 0:
			evs[r.Intn(len(evs))].Cancel()
			check("cancel")
		case k < 8 && len(evs) > 0:
			i := r.Intn(len(evs))
			evs[i] = s.move(evs[i], s.Now()+delay(), func() { check("fire moved") }, nil)
			check("move")
		case inCallback: // a callback cannot run the kernel
		case k == 8:
			s.MaxEvents = s.Fired() + int64(r.Intn(8)+1)
			if err := s.RunUntil(s.Now() + delay()); err != nil && !errors.Is(err, ErrSimLimit) {
				t.Fatalf("RunUntil with MaxEvents: %v", err)
			}
			s.MaxEvents = 0
			check("MaxEvents stop")
		default:
			limit := s.Now() + delay()
			if r.Intn(3) == 0 {
				limit = s.Now() - 1
			}
			if err := s.RunUntil(limit); err != nil && !errors.Is(err, ErrSimLimit) {
				t.Fatalf("RunUntil(%v): %v", limit, err)
			}
			check("RunUntil")
		}
	}
	for i := 0; i < 4000; i++ {
		op(false)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	check("the final Run")
	if len(s.heap) != 0 || s.due.n != 0 || s.Pending() != 0 {
		t.Fatalf("drained: heap %d, ring %d, Pending %d", len(s.heap), s.due.n, s.Pending())
	}
}

// TestDeadlockManyParkedProcs parks ten thousand processes with no
// waker: the drained kernel must report every one of them, at a scale
// where per-proc bookkeeping mistakes (lost entries, quadratic
// collection) would surface.
func TestDeadlockManyParkedProcs(t *testing.T) {
	leaks := leakCheck(t)
	s := New(1)
	const n = 10000
	for i := 0; i < n; i++ {
		s.Spawn(fmt.Sprintf("parked-%05d", i), func(p *Proc) { p.Park() })
	}
	err := s.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	if len(dl.Parked) != n {
		t.Fatalf("DeadlockError lists %d parked procs, want %d", len(dl.Parked), n)
	}
	seen := make(map[string]bool, n)
	for _, name := range dl.Parked {
		if seen[name] {
			t.Fatalf("proc %q reported twice", name)
		}
		seen[name] = true
	}
	leaks(s)
}

// TestStopMidInstant stops a run while events of the current instant
// are still queued behind the one the stop came at: MaxEvents trips,
// or a callback panics, halfway through the instant. The clock must
// stay at that instant, not jump to the horizon past it; Pending must
// count what is left of the instant; and, after MaxEvents, a resumed
// run must fire the rest in the order an uninterrupted run does.
func TestStopMidInstant(t *testing.T) {
	const horizon = 5 * time.Second
	setup := func(s *Sim, fired *[]string, panicAt string) {
		log := func(name string) func() {
			return func() {
				*fired = append(*fired, name)
				if name == panicAt {
					panic(name)
				}
			}
		}
		// b and c are due at 1s from the start; a's burst joins the
		// instant when a fires, behind them.
		s.Schedule(time.Second, func() {
			log("a")()
			for _, name := range []string{"a1", "a2", "a3"} {
				s.Schedule(s.Now(), log(name))
			}
		})
		s.Schedule(time.Second, log("b"))
		s.Schedule(time.Second, log("c"))
		s.Schedule(10*time.Second, log("late"))
	}
	var want []string
	s := New(1)
	setup(s, &want, "")
	if err := s.RunUntil(horizon); !errors.Is(err, ErrSimLimit) {
		t.Fatalf("uninterrupted RunUntil = %v, want ErrSimLimit", err)
	}
	if s.Now() != horizon || s.Pending() != 1 {
		t.Fatalf("uninterrupted run: Now %v, Pending %d; want %v, 1", s.Now(), s.Pending(), horizon)
	}
	if fmt.Sprint(want) != "[a b c a1 a2 a3]" {
		t.Fatalf("uninterrupted order %v", want)
	}

	// Stopped after each of the instant's first five events, the
	// queues hold the rest of the instant and late.
	for stopAfter := int64(1); stopAfter < 6; stopAfter++ {
		var got []string
		s := New(1)
		setup(s, &got, "")
		s.MaxEvents = stopAfter
		if err := s.RunUntil(horizon); !errors.Is(err, ErrSimLimit) {
			t.Fatalf("MaxEvents %d: RunUntil = %v, want ErrSimLimit", stopAfter, err)
		}
		if s.Now() != time.Second {
			t.Fatalf("MaxEvents %d: Now = %v mid-instant, want 1s", stopAfter, s.Now())
		}
		if p, want := s.Pending(), 7-int(stopAfter); p != want {
			t.Fatalf("MaxEvents %d: Pending = %d, want %d", stopAfter, p, want)
		}
		s.MaxEvents = 0
		if err := s.RunUntil(horizon); !errors.Is(err, ErrSimLimit) {
			t.Fatalf("MaxEvents %d: resumed RunUntil = %v, want ErrSimLimit", stopAfter, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) || s.Now() != horizon {
			t.Fatalf("MaxEvents %d: resumed run fired %v, Now %v; want %v, %v", stopAfter, got, s.Now(), want, horizon)
		}
	}

	// A panic in b leaves c and a's whole burst queued at 1s.
	var got []string
	s = New(1)
	setup(s, &got, "b")
	var pe *PanicError
	if err := s.RunUntil(horizon); !errors.As(err, &pe) {
		t.Fatalf("RunUntil with a panicking callback = %v, want *PanicError", err)
	}
	if s.Now() != time.Second || s.Pending() != 5 {
		t.Fatalf("after the panic: Now %v, Pending %d; want 1s, 5", s.Now(), s.Pending())
	}
}

// TestKernelHotPathsAllocateNothing holds the kernel's per-event paths
// at zero allocations once the slot table and queues have grown:
// Schedule and fire through the ring (due now) and through the heap
// (later), Cancel, which takes a heap entry out where it sits, and the
// in-place move.
func TestKernelHotPathsAllocateNothing(t *testing.T) {
	s := New(1)
	fn := func() {}
	later := func() { s.Schedule(s.Now(), fn) }
	moved := s.After(time.Hour, fn)
	var k time.Duration
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"schedule and fire", func() {
			s.Schedule(s.Now(), fn)
			s.After(time.Millisecond, later)
			if err := s.RunUntil(s.Now() + time.Second); !errors.Is(err, ErrSimLimit) {
				t.Fatalf("RunUntil = %v, want ErrSimLimit (the moved event is pending)", err)
			}
		}},
		{"cancel", func() { s.After(time.Minute, fn).Cancel() }},
		{"move", func() {
			k++
			moved = s.move(moved, s.Now()+time.Hour+k%7, fn, nil)
		}},
	} {
		for i := 0; i < 256; i++ {
			c.op()
		}
		canceled := s.canceled
		if n := testing.AllocsPerRun(200, c.op); n != 0 {
			t.Errorf("%s: %v allocations, want 0", c.name, n)
		}
		if c.name == "move" && s.canceled != canceled {
			t.Errorf("move: %d canceled entries before, %d after; want it in place", canceled, s.canceled)
		}
	}
}
