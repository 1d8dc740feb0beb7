package des

import (
	"fmt"
	"testing"
	"time"
)

// The BenchmarkDES* family tracks the simulation kernel's own
// throughput (simulated events per wall-clock second) the same way the
// data-plane benchmarks track shuffle latency: every scenario on the
// million-user roadmap bottoms out in Schedule/fire, Park/Wake, and the
// token-bucket hot paths, so kernel regressions are data-plane
// regressions one PR later. Reported metric is events/s (or the
// op-specific equivalent); allocs/op must stay 0 in steady state for
// the schedule/fire path.

// benchHeapDepth keeps a realistic number of concurrent pending events
// on the heap while the benchmark turns it over — a depth-1 heap would
// flatter any implementation.
const benchHeapDepth = 1024

// BenchmarkDESScheduleFire measures raw Schedule->fire turnover with
// benchHeapDepth self-rescheduling timers at staggered offsets: the
// steady-state shape of a large simulation (many pending timers, one
// fired and one scheduled per step).
func BenchmarkDESScheduleFire(b *testing.B) {
	s := New(1)
	fired := 0
	for i := 0; i < benchHeapDepth; i++ {
		// Stagger the periods so the heap order churns instead of
		// degenerating into FIFO rotation.
		period := time.Duration(i%97+1) * time.Microsecond
		var fn func()
		fn = func() {
			fired++
			if fired < b.N {
				s.After(period, fn)
			}
		}
		s.After(period, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if fired < b.N {
		b.Fatalf("fired %d of %d", fired, b.N)
	}
	b.ReportMetric(float64(fired)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkDESScheduleNow measures Schedule->fire for events due at
// the instant being fired (a wake, a callback handing on its result),
// eight chains of them with benchHeapDepth later events pending: the
// ring's path, which never touches the heap.
func BenchmarkDESScheduleNow(b *testing.B) {
	s := New(1)
	for i := 0; i < benchHeapDepth; i++ {
		s.After(time.Hour+time.Duration(i), func() {})
	}
	fired := 0
	var fn func()
	fn = func() {
		if fired++; fired < b.N {
			s.Schedule(s.Now(), fn)
		}
	}
	for i := 0; i < 8; i++ {
		s.Schedule(0, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.RunUntil(time.Minute); err != ErrSimLimit {
		b.Fatalf("RunUntil = %v, want ErrSimLimit", err)
	}
	b.StopTimer()
	if fired < b.N {
		b.Fatalf("fired %d of %d", fired, b.N)
	}
	b.ReportMetric(float64(fired)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkDESReschedule measures the in-place move of one pending
// event among benchHeapDepth others, a link's membership change: each
// move draws a fresh seq and sifts the entry from where it sits, up or
// down, once.
func BenchmarkDESReschedule(b *testing.B) {
	s := New(1)
	fn := func() {}
	for i := 0; i < benchHeapDepth; i++ {
		s.After(time.Duration(i+1)*time.Microsecond, fn)
	}
	ev := s.After(time.Microsecond, fn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev = s.move(ev, time.Duration(i*37%benchHeapDepth+1)*time.Microsecond, fn, nil)
	}
	b.StopTimer()
	if s.canceled != 0 {
		b.Fatalf("%d canceled entries after the moves", s.canceled)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "moves/s")
}

// BenchmarkDESCancel measures the cancel-heavy regime — timeouts armed
// and disarmed without ever firing, the token-bucket/link pattern —
// where each cancel takes its entry off the heap where it sits.
func BenchmarkDESCancel(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := s.Schedule(time.Hour+time.Duration(i), func() {})
		ev.Cancel()
	}
	b.StopTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cancels/s")
}

// BenchmarkDESParkWake measures the process handoff path: a ring of
// parked processes each woken in turn, parking again after waking —
// the shape of every Resource/stream/WaitGroup interaction.
func BenchmarkDESParkWake(b *testing.B) {
	const procs = 256
	s := New(1)
	woken := 0
	ring := make([]*Proc, procs)
	for i := 0; i < procs; i++ {
		i := i
		ring[i] = s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for woken < b.N {
				woken++
				next := ring[(i+1)%procs]
				next.Wake()
				if woken >= b.N {
					// Release the ring: wake everyone so no proc is left
					// parked when the heap drains.
					for _, q := range ring {
						q.Wake()
					}
					return
				}
				p.Park()
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(woken)/b.Elapsed().Seconds(), "wakes/s")
}

// BenchmarkDESTokenBucket measures a contended token bucket: many
// processes drawing from one rate limit, the gateway-admission and
// store-throttle hot path.
func BenchmarkDESTokenBucket(b *testing.B) {
	const procs = 64
	s := New(1)
	tb := NewTokenBucket(s, 1e6, 64)
	taken := 0
	for i := 0; i < procs; i++ {
		s.Spawn(fmt.Sprintf("t%d", i), func(p *Proc) {
			for taken < b.N {
				taken++
				take(tb, p, 1)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(taken)/b.Elapsed().Seconds(), "takes/s")
}

// BenchmarkDESLinkTransfer measures one transfer among a fixed number
// of concurrent flows: capped flows on a link with room to spare, sizes
// unequal so completions interleave and every arrival and departure
// reshares the link. flows=8 and 256 are the benchmark harness's
// des.link_transfer_ns_f* probes; 8 and 64 take the single pass, 256
// is link-bound and waterfills at every change. The store cases have no
// process in them, as a store's streams have none: each flow's callback
// starts its next transfer, so the number is the link's arithmetic and
// two events, no goroutine switch. store=48 is a store backend under
// load (one cap, distinct names, the single pass); store-mixed=48 gives
// every other flow a lower cap and stays on the general path.
func BenchmarkDESLinkTransfer(b *testing.B) {
	size := func(f, k int) int64 { return int64(1<<20 + ((f*31+k*17)%64)<<14) }
	for _, flows := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
			s := New(1)
			l := NewLink(s, 10e9)
			per := (b.N + flows - 1) / flows
			for f := 0; f < flows; f++ {
				f := f
				s.Spawn("flow", func(p *Proc) {
					for k := 0; k < per; k++ {
						l.Transfer(p, size(f, k), 95e6)
					}
				})
			}
			runLinkBenchmark(b, s, l)
		})
	}
	for _, bc := range []struct {
		name   string
		oddCap float64
	}{{"store=48", 95e6}, {"store-mixed=48", 80e6}} {
		b.Run(bc.name, func(b *testing.B) {
			const flows = 48
			s := New(1)
			l := NewLink(s, 10e9)
			per := (b.N + flows - 1) / flows
			for f := 0; f < flows; f++ {
				f, k, flowCap := f, 0, 95e6
				if f%2 == 1 {
					flowCap = bc.oddCap
				}
				var next func()
				next = func() {
					if k < per {
						k++
						l.TransferAsync(size(f, k), flowCap, next)
					}
				}
				s.Schedule(0, next)
			}
			runLinkBenchmark(b, s, l)
		})
	}
}

// runLinkBenchmark times the run of a simulation whose transfers are
// all set up and reports them per second.
func runLinkBenchmark(b *testing.B, s *Sim, l *Link) {
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(l.Transfers())/b.Elapsed().Seconds(), "transfers/s")
}

// BenchmarkDESSpawn measures a burst of spawns, the harness's
// des.spawn_ns probe: one process spawns b.N children before any of
// them runs, so every child is alive at once and none can reuse
// another's goroutine; each then runs to completion.
func BenchmarkDESSpawn(b *testing.B) {
	s := New(1)
	s.Spawn("parent", func(p *Proc) {
		wg := NewWaitGroup(s)
		for i := 0; i < b.N; i++ {
			wg.Add(1)
			p.Spawn("child", func(*Proc) { wg.Done() })
		}
		wg.Wait(p)
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDESSpawnChurn measures the gateway's shape: one short-lived
// process per spaced arrival (service time four gaps, so a handful are
// alive at any instant), each finishing before most of the later ones
// start.
func BenchmarkDESSpawnChurn(b *testing.B) {
	s := New(1)
	served := 0
	s.Spawn("arrivals", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Spawn("job", func(j *Proc) {
				j.Sleep(4 * time.Millisecond)
				served++
			})
			p.Sleep(time.Millisecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if served != b.N {
		b.Fatalf("served %d of %d", served, b.N)
	}
}

// BenchmarkDESSleepSelf measures a lone process sleeping in a loop:
// its own wake is always the next event, so it fires it itself.
func BenchmarkDESSleepSelf(b *testing.B) {
	s := New(1)
	s.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}
