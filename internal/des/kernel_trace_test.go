package des

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// kernelTrace drives a seeded randomised workload over every kernel
// primitive and returns one line per process activation and per event
// callback: virtual now (ns), Fired(), who. The run is stopped at a
// horizon and resumed twice; each stop unwinds every live process, so
// each phase is started by a bare callback that survives on the heap
// and builds its own Resource, TokenBucket, Link and WaitGroup (what a
// killed process leaves half-held in the previous phase's objects
// depends on nothing the next phase can see).
//
// Unwinding itself is not traced: the order in which a stop kills
// processes is not an event order.
//
// sleep is how a process sleeps and transfer how it moves bytes:
// Proc.Sleep and Link.Transfer, or the halves they are made of.
func kernelTrace(t *testing.T, sleep func(p *Proc, d time.Duration), transfer func(l *Link, p *Proc, bytes int64, flowCap float64)) string {
	t.Helper()
	var b strings.Builder
	s := New(20211206)
	log := func(who string) {
		fmt.Fprintf(&b, "%d %d %s\n", int64(s.Now()), s.Fired(), who)
	}
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }

	phase := func(tag string, workers, ops int) {
		res := NewResource(s, 3)
		tb := NewTokenBucket(s, 200, 4)
		link := NewLink(s, 4e6)
		wg := NewWaitGroup(s)
		var parked []*Proc
		var all []*Proc

		// The janitor is a chain of callbacks: it wakes whoever is
		// parked (a callback calling Wake) and one arbitrary process
		// (usually a no-op: running, sleeping, or finished and stale),
		// and keeps going until every worker is done. The tick cap is
		// for a phase cut short: a process killed before it ever ran
		// never reaches its wg.Done.
		tick := 0
		var janitor func()
		janitor = func() {
			tick++
			log(fmt.Sprintf("%s/janitor#%d parked=%d", tag, tick, len(parked)))
			for _, q := range parked {
				q.Wake()
			}
			parked = parked[:0]
			all[s.rng.Intn(len(all))].Wake()
			if wg.Count() > 0 && tick < 500 {
				s.After(ms(7), janitor)
			}
		}

		child := func(name string, d time.Duration) {
			wg.Add(1)
			all = append(all, s.Spawn(name, func(c *Proc) {
				defer wg.Done()
				log(name + " start")
				sleep(c, d)
				log(name + " end")
			}))
		}

		for w := 0; w < workers; w++ {
			name := fmt.Sprintf("%s/w%02d", tag, w)
			wg.Add(1)
			all = append(all, s.Spawn(name, func(p *Proc) {
				defer wg.Done()
				log(name + " start")
				for k := 0; k < ops; k++ {
					r := p.Rand()
					op := r.Intn(12)
					at := fmt.Sprintf("%s op%d=%d", name, k, op)
					switch op {
					case 0: // timed sleep
						sleep(p, ms(r.Intn(20)))
					case 1: // same-instant ties: zero and negative sleeps
						sleep(p, 0)
						log(at + " tie")
						sleep(p, -time.Second)
					case 2: // park until the janitor or a peer wakes us
						parked = append(parked, p)
						p.Park()
					case 3: // wake a peer, parked or not
						if n := len(parked); n > 0 {
							i := r.Intn(n)
							q := parked[i]
							parked = append(parked[:i], parked[i+1:]...)
							q.Wake()
							q.Wake()
						}
						all[r.Intn(len(all))].Wake()
						sleep(p, ms(1))
					case 4: // short-lived child
						child(fmt.Sprintf("%s.c%d", name, k), ms(r.Intn(5)))
						sleep(p, ms(r.Intn(3)))
					case 5: // a callback that fires
						cb := at + " cb"
						s.After(ms(r.Intn(10)), func() { log(cb) })
						sleep(p, ms(2))
					case 6: // a callback canceled before it fires, and a stale cancel
						ev := s.After(ms(5), func() { log(at + " canceled cb fired") })
						fired := s.After(0, func() { log(at + " cb0") })
						sleep(p, ms(1))
						ev.Cancel()
						fired.Cancel()
					case 7: // a callback that spawns: the child's activation follows it
						cname := fmt.Sprintf("%s.s%d", name, k)
						s.After(ms(r.Intn(4)), func() {
							log(cname + " spawner")
							child(cname, 0)
						})
						sleep(p, ms(1))
					case 8:
						n := int64(1 + r.Intn(3))
						res.Acquire(p, n)
						log(at + " acquired")
						sleep(p, ms(r.Intn(6)))
						res.Release(n)
					case 9:
						take(tb, p, float64(1+r.Intn(3)))
					case 10:
						transfer(link, p, int64(1+r.Intn(64))<<10, 1e6)
					case 11: // wait for a child through a private WaitGroup
						done := NewWaitGroup(s)
						done.Add(1)
						cname := fmt.Sprintf("%s.j%d", name, k)
						all = append(all, s.Spawn(cname, func(c *Proc) {
							log(cname + " start")
							sleep(c, ms(r.Intn(4)))
							done.Done()
						}))
						done.Wait(p)
					}
					log(at)
				}
			}))
		}
		s.Spawn(tag+"/waiter", func(p *Proc) {
			wg.Wait(p)
			log(tag + "/waiter released")
			// Outlives the phase's horizon: killed asleep.
			sleep(p, time.Hour)
			log(tag + "/waiter woke (must not happen)")
		})
		s.After(ms(3), janitor)
	}

	run := func(limit time.Duration) {
		err := s.RunUntil(limit)
		fmt.Fprintf(&b, "RunUntil(%d) = %v now=%d fired=%d pending=%d\n",
			int64(limit), err, int64(s.Now()), s.Fired(), s.Pending())
		if limit >= 0 && !errors.Is(err, ErrSimLimit) {
			t.Fatalf("RunUntil(%v) = %v, want ErrSimLimit", limit, err)
		}
	}

	// Phase A starts from Spawns made before Run; B and C from bare
	// callbacks beyond the previous horizon. A's horizon cuts it short
	// with workers mid-operation; B's and C's fall after the workers
	// finish, with only the waiter asleep.
	phase("A", 24, 14)
	s.Schedule(2*time.Second, func() { log("B/boot"); phase("B", 16, 10) })
	s.Schedule(4*time.Second, func() { log("C/boot"); phase("C", 8, 8) })
	s.Schedule(5*time.Second, func() { log("tail") })
	run(60 * time.Millisecond)
	run(3 * time.Second)
	run(4*time.Second + 500*time.Millisecond)
	run(-1)
	return b.String()
}

// TestKernelTraceGolden pins the order in which the kernel activates
// processes and fires callbacks. The file was recorded at commit
// 94ab1ba on the scheduler-goroutine kernel, before the event loop
// moved into the processes themselves; it is compared, never
// rewritten.
func TestKernelTraceGolden(t *testing.T) {
	got := kernelTrace(t, (*Proc).Sleep, (*Link).Transfer)
	golden := filepath.Join("testdata", "kernel_trace.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("kernel trace drifted from %s at line %d:\n got: %s\nwant: %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("kernel trace drifted from %s: %d lines, want %d", golden, len(gl), len(wl))
	}
	if again := kernelTrace(t, (*Proc).Sleep, (*Link).Transfer); again != got {
		t.Error("kernel trace is not deterministic run to run")
	}
	// Arming the wake and parking is sleeping, and starting a flow and
	// parking until it can be collected is transferring: a chain of
	// callbacks that waits in either (objectstore's) fires what the
	// process did.
	halves := kernelTrace(t,
		func(p *Proc, d time.Duration) { p.WakeAfter(d); p.Park() },
		func(l *Link, p *Proc, bytes int64, flowCap float64) {
			f := l.Start(p, bytes, flowCap)
			for !l.Collect(f) {
				p.Park()
			}
		})
	if halves != got {
		t.Error("WakeAfter then Park, or Start then Collect, traced differently from Sleep and Transfer")
	}
}
