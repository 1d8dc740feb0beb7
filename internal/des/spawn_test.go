package des

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/des/destest"
)

// TestSpawnAllocatesOnlyTheProc: on a warm Sim with an idle worker, a
// Spawn, named or numbered, makes one allocation of 96 bytes, its Proc:
// the process's activations name it in their slots, so it binds no
// closure, and a numbered process formats no name. An activation that
// fires allocates nothing.
func TestSpawnAllocatesOnlyTheProc(t *testing.T) {
	if destest.Race {
		t.Skip("the race detector allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := New(1)
	body := func(*Proc) {}
	s.Spawn("main", func(p *Proc) {
		// Warm the slot table, the ring and the idle list.
		for i := 0; i < 16; i++ {
			p.Spawn("warm", body)
			p.Sleep(0)
		}
		var seq int64
		for _, c := range []struct {
			name  string
			spawn func()
		}{
			{"named", func() { p.Spawn("named", body) }},
			{"numbered", func() { seq++; p.SpawnNumbered("numbered-", seq, body) }},
		} {
			const n = 100
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < n; i++ {
				c.spawn()
				p.Sleep(0) // the child runs and leaves its goroutine idle
			}
			runtime.ReadMemStats(&after)
			mallocs, bytes := (after.Mallocs-before.Mallocs)/n, (after.TotalAlloc-before.TotalAlloc)/n
			if mallocs != 1 || bytes != 96 {
				t.Errorf("%s Spawn: %d allocations of %d bytes in all, want one of 96", c.name, mallocs, bytes)
			}
		}
		if n := testing.AllocsPerRun(100, func() { p.Sleep(time.Millisecond) }); n != 0 {
			t.Errorf("a fired activation: %v allocations, want 0", n)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestWakeSlotNamesItsProcess: a process's wake is a slot naming the
// process. Cancel marks it dead in the ring or takes it off the heap,
// WakeAfter moves it in place, and a stale handle to it does nothing.
func TestWakeSlotNamesItsProcess(t *testing.T) {
	s := New(1)
	var resumed []time.Duration
	q := s.Spawn("q", func(q *Proc) {
		q.Park()
		resumed = append(resumed, q.Now())
	})
	s.Spawn("p", func(p *Proc) {
		p.Sleep(0) // q parks
		q.Wake()
		ring := q.wake
		if sl := &s.slots[ring.slot]; sl.proc != q || sl.fire != nil || sl.pos != posRing {
			t.Errorf("Wake's slot: proc %p fire set %v pos %d, want q's, none, in the ring", sl.proc, sl.fire != nil, sl.pos)
		}
		pending := s.Pending()
		ring.Cancel()
		ring.Cancel() // stale
		if s.slots[ring.slot].pos != posDead || ring.pending() || s.Pending() != pending-1 {
			t.Errorf("canceled in the ring: pos %d, pending %v, Pending %d; want dead, false, %d",
				s.slots[ring.slot].pos, ring.pending(), s.Pending(), pending-1)
		}

		q.WakeAfter(time.Second)
		old := q.wake
		q.WakeAfter(2 * time.Second)
		moved := q.wake
		if moved.slot != old.slot || old.pending() || old.At() != 0 || moved.At() != 2*time.Second {
			t.Errorf("WakeAfter did not move the wake in place: slot %d then %d, old pending %v, at %v",
				old.slot, moved.slot, old.pending(), moved.At())
		}
		if sl := &s.slots[moved.slot]; sl.proc != q || sl.pos < 0 {
			t.Errorf("moved wake's slot: proc %p pos %d, want q's on the heap", sl.proc, sl.pos)
		}
		old.Cancel() // stale: the moved wake stays
		if !moved.pending() {
			t.Fatal("a stale handle canceled the moved wake")
		}
		heap := len(s.heap)
		moved.Cancel()
		if len(s.heap) != heap-1 || moved.pending() || s.slots[moved.slot].proc != nil {
			t.Errorf("canceled on the heap: heap %d, want %d; pending %v; slot still names a process: %v",
				len(s.heap), heap-1, moved.pending(), s.slots[moved.slot].proc != nil)
		}

		p.Sleep(3 * time.Second)
		q.WakeAfter(time.Second)
		p.Sleep(2 * time.Second)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []time.Duration{4 * time.Second}; !reflect.DeepEqual(resumed, want) {
		t.Errorf("q resumed at %v, want %v: only by its last wake", resumed, want)
	}
}
