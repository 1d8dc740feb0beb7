package des

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestResourceImmediateGrant(t *testing.T) {
	s := New(1)
	r := NewResource(s, 3)
	var heldAt time.Duration
	s.Spawn("a", func(p *Proc) {
		r.Acquire(p, 2)
		heldAt = p.Now()
		r.Release(2)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if heldAt != 0 {
		t.Fatalf("acquired at %v, want immediately", heldAt)
	}
}

func TestResourceBlocksUntilRelease(t *testing.T) {
	s := New(1)
	r := NewResource(s, 1)
	var acquiredAt time.Duration
	s.Spawn("holder", func(p *Proc) {
		r.Acquire(p, 1)
		p.Sleep(10 * time.Second)
		r.Release(1)
	})
	s.Spawn("waiter", func(p *Proc) {
		p.Sleep(time.Second) // ensure holder goes first
		r.Acquire(p, 1)
		acquiredAt = p.Now()
		r.Release(1)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if acquiredAt != 10*time.Second {
		t.Fatalf("waiter acquired at %v, want 10s", acquiredAt)
	}
}

func TestResourceFIFONoOvertaking(t *testing.T) {
	s := New(1)
	r := NewResource(s, 2)
	var order []string
	s.Spawn("holder", func(p *Proc) {
		r.Acquire(p, 2)
		p.Sleep(10 * time.Second)
		r.Release(2)
	})
	// big asks for 2, small for 1; small arrives later and must NOT
	// overtake big even when 1 unit would fit.
	s.Spawn("big", func(p *Proc) {
		p.Sleep(time.Second)
		r.Acquire(p, 2)
		order = append(order, "big")
		p.Sleep(time.Second)
		r.Release(2)
	})
	s.Spawn("small", func(p *Proc) {
		p.Sleep(2 * time.Second)
		r.Acquire(p, 1)
		order = append(order, "small")
		r.Release(1)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 2 || order[0] != "big" || order[1] != "small" {
		t.Fatalf("order = %v, want [big small]", order)
	}
}

func TestResourceConcurrencyCeiling(t *testing.T) {
	s := New(1)
	r := NewResource(s, 4)
	inUse, peak := 0, 0
	for i := 0; i < 16; i++ {
		s.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			r.Acquire(p, 1)
			inUse++
			if inUse > peak {
				peak = inUse
			}
			p.Sleep(time.Second)
			inUse--
			r.Release(1)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if peak != 4 {
		t.Fatalf("peak concurrency = %d, want 4", peak)
	}
	if got := s.Now(); got != 4*time.Second {
		t.Fatalf("makespan = %v, want 4s (16 jobs / 4 slots)", got)
	}
}

func TestResourceOverCapacityPanics(t *testing.T) {
	s := New(1)
	r := NewResource(s, 1)
	s.Spawn("greedy", func(p *Proc) {
		r.Acquire(p, 2)
	})
	err := s.Run()
	if _, ok := err.(*PanicError); !ok {
		t.Fatalf("Run = %v, want PanicError for over-capacity acquire", err)
	}
}

func TestResourceAccounting(t *testing.T) {
	s := New(1)
	r := NewResource(s, 5)
	s.Spawn("t", func(p *Proc) {
		r.Acquire(p, 3)
		if r.InUse() != 3 {
			t.Errorf("InUse = %d, want 3", r.InUse())
		}
		if r.Capacity() != 5 {
			t.Errorf("Capacity = %d, want 5", r.Capacity())
		}
		r.Release(3)
		if r.InUse() != 0 {
			t.Errorf("InUse after release = %d, want 0", r.InUse())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// A capacity-one resource is the kernel's mutex.
func TestMutexMutualExclusion(t *testing.T) {
	s := New(1)
	m := NewResource(s, 1)
	inside := 0
	violations := 0
	for i := 0; i < 8; i++ {
		s.Spawn(fmt.Sprintf("m%d", i), func(p *Proc) {
			m.Acquire(p, 1)
			inside++
			if inside > 1 {
				violations++
			}
			p.Sleep(time.Second)
			inside--
			m.Release(1)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if violations != 0 {
		t.Fatalf("mutual exclusion violated %d times", violations)
	}
}

// TestResourceKilledWaiterPassesUnitsOn kills, at a RunUntil horizon, a
// holder and a process queued behind it, in both orders: the waiter
// killed while still queued (it is the older one, so killLive reaches it
// first), and the waiter granted the units by the holder's deferred
// Release just before killLive reaches it inside Acquire. Either way the
// units go to the next live waiter, a callback queued behind them when
// there is one, and a process acquiring on the resumed run gets them
// rather than deadlocking.
func TestResourceKilledWaiterPassesUnitsOn(t *testing.T) {
	const horizon = 500 * time.Millisecond
	for _, tc := range []struct {
		name        string
		waiterFirst bool
		callback    bool
	}{
		{"waiter killed queued", true, false},
		{"waiter killed queued, callback behind", true, true},
		{"waiter killed granted", false, false},
		{"waiter killed granted, callback behind", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(1)
			r := NewResource(s, 1)
			holder := func(p *Proc) {
				r.Acquire(p, 1)
				defer r.Release(1)
				p.Sleep(10 * time.Second)
			}
			waiter := func(p *Proc) {
				p.Sleep(100 * time.Millisecond)
				r.Acquire(p, 1)
				t.Error("a waiter behind a 10 s holder acquired before the 500 ms horizon")
				r.Release(1)
			}
			if tc.waiterFirst {
				s.Spawn("waiter", waiter)
				s.Spawn("holder", holder)
			} else {
				s.Spawn("holder", holder)
				s.Spawn("waiter", waiter)
			}
			calledAt := time.Duration(-1)
			if tc.callback {
				s.Schedule(200*time.Millisecond, func() {
					if r.AcquireAsync(1, func() { calledAt = s.Now(); r.Release(1) }) {
						t.Error("a held resource granted a callback at once")
					}
				})
			}
			if err := s.RunUntil(horizon); !errors.Is(err, ErrSimLimit) {
				t.Fatalf("RunUntil: %v", err)
			}
			acquiredAt := time.Duration(-1)
			s.Spawn("next", func(p *Proc) {
				r.Acquire(p, 1)
				acquiredAt = p.Now()
				r.Release(1)
			})
			if err := s.Run(); err != nil {
				t.Fatalf("resumed run: %v (in use %d, queued %d)", err, r.InUse(), r.Queued())
			}
			if acquiredAt != horizon {
				t.Errorf("next process acquired at %v, want %v", acquiredAt, horizon)
			}
			if tc.callback && calledAt != horizon {
				t.Errorf("callback behind the killed waiter granted at %v, want %v", calledAt, horizon)
			}
			if r.InUse() != 0 || r.Queued() != 0 {
				t.Errorf("after the run: %d in use, %d queued, want none", r.InUse(), r.Queued())
			}
		})
	}
}
