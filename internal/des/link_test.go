package des

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"github.com/faaspipe/faaspipe/internal/des/destest"
)

func approxSeconds(t *testing.T, got time.Duration, want float64, tol float64) {
	t.Helper()
	if math.Abs(got.Seconds()-want) > tol {
		t.Fatalf("duration = %.4fs, want ~%.4fs", got.Seconds(), want)
	}
}

func TestLinkSingleFlowFullCapacity(t *testing.T) {
	s := New(1)
	l := NewLink(s, 100) // 100 B/s
	s.Spawn("t", func(p *Proc) {
		l.Transfer(p, 500, 0)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	approxSeconds(t, s.Now(), 5.0, 0.01)
}

func TestLinkTwoEqualFlowsShareHalf(t *testing.T) {
	s := New(1)
	l := NewLink(s, 100)
	for i := 0; i < 2; i++ {
		s.Spawn(fmt.Sprintf("f%d", i), func(p *Proc) {
			l.Transfer(p, 500, 0)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Both flows at 50 B/s for the whole time: 10s.
	approxSeconds(t, s.Now(), 10.0, 0.01)
}

func TestLinkFlowCapLimitsLoneFlow(t *testing.T) {
	s := New(1)
	l := NewLink(s, 1000)
	s.Spawn("capped", func(p *Proc) {
		l.Transfer(p, 500, 100) // capped at 100 B/s despite big link
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	approxSeconds(t, s.Now(), 5.0, 0.01)
}

func TestLinkDepartingFlowSpeedsUpSurvivor(t *testing.T) {
	s := New(1)
	l := NewLink(s, 100)
	var shortDone, longDone time.Duration
	s.Spawn("short", func(p *Proc) {
		l.Transfer(p, 100, 0)
		shortDone = p.Now()
	})
	s.Spawn("long", func(p *Proc) {
		l.Transfer(p, 300, 0)
		longDone = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Share 50/50 until short finishes at t=2 (100B at 50B/s); long has
	// 200B left and now gets 100 B/s: finishes at t=4.
	approxSeconds(t, shortDone, 2.0, 0.01)
	approxSeconds(t, longDone, 4.0, 0.01)
}

func TestLinkLateArrivalSlowsExisting(t *testing.T) {
	s := New(1)
	l := NewLink(s, 100)
	var firstDone time.Duration
	s.Spawn("first", func(p *Proc) {
		l.Transfer(p, 300, 0)
		firstDone = p.Now()
	})
	s.Spawn("second", func(p *Proc) {
		p.Sleep(time.Second)
		l.Transfer(p, 1000, 0)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// first: 100B in first second alone, then 200B at 50B/s => t=5.
	approxSeconds(t, firstDone, 5.0, 0.01)
}

func TestLinkUnlimitedCapacityUsesFlowCap(t *testing.T) {
	s := New(1)
	l := NewLink(s, 0) // unlimited
	s.Spawn("t", func(p *Proc) {
		l.Transfer(p, 1000, 100)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	approxSeconds(t, s.Now(), 10.0, 0.01)
}

func TestLinkUnlimitedNoCapInstant(t *testing.T) {
	s := New(1)
	l := NewLink(s, 0)
	s.Spawn("t", func(p *Proc) {
		l.Transfer(p, 1<<40, 0) // 1 TiB, but infinite rate
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Now() != 0 {
		t.Fatalf("unlimited transfer took %v, want 0", s.Now())
	}
}

func TestLinkZeroBytesInstant(t *testing.T) {
	s := New(1)
	l := NewLink(s, 1)
	s.Spawn("t", func(p *Proc) {
		l.Transfer(p, 0, 0)
		if p.Now() != 0 {
			t.Error("zero-byte transfer advanced time")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestLinkStats(t *testing.T) {
	s := New(1)
	l := NewLink(s, 1000)
	for i := 0; i < 3; i++ {
		s.Spawn(fmt.Sprintf("f%d", i), func(p *Proc) {
			l.Transfer(p, 100, 0)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if l.Transfers() != 3 {
		t.Fatalf("Transfers = %d, want 3", l.Transfers())
	}
	if l.BytesMoved() != 300 {
		t.Fatalf("BytesMoved = %.0f, want 300", l.BytesMoved())
	}
	if l.ActiveFlows() != 0 {
		t.Fatalf("ActiveFlows after drain = %d, want 0", l.ActiveFlows())
	}
}

func TestLinkManyFlowsAggregateThroughputConserved(t *testing.T) {
	s := New(1)
	l := NewLink(s, 1000)
	const flows = 20
	const bytes = 500
	for i := 0; i < flows; i++ {
		s.Spawn(fmt.Sprintf("f%d", i), func(p *Proc) {
			l.Transfer(p, bytes, 0)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// All equal: aggregate rate is the full 1000 B/s, so total time is
	// flows*bytes/1000 = 10s.
	approxSeconds(t, s.Now(), 10.0, 0.05)
}

func TestWaterfillEqualSplit(t *testing.T) {
	rates := Waterfill(100, []float64{math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)})
	for _, r := range rates {
		if math.Abs(r-25) > 1e-9 {
			t.Fatalf("rates = %v, want all 25", rates)
		}
	}
}

func TestWaterfillRespectsSmallCap(t *testing.T) {
	rates := Waterfill(100, []float64{10, math.Inf(1), math.Inf(1)})
	if rates[0] != 10 {
		t.Fatalf("capped flow rate = %v, want 10", rates[0])
	}
	if math.Abs(rates[1]-45) > 1e-9 || math.Abs(rates[2]-45) > 1e-9 {
		t.Fatalf("rates = %v, want [10 45 45]", rates)
	}
}

func TestWaterfillUndersubscribed(t *testing.T) {
	rates := Waterfill(1000, []float64{10, 20, 30})
	want := []float64{10, 20, 30}
	for i := range want {
		if math.Abs(rates[i]-want[i]) > 1e-9 {
			t.Fatalf("rates = %v, want caps %v", rates, want)
		}
	}
}

func TestWaterfillPropertyConservationAndCaps(t *testing.T) {
	f := func(capSeed []uint16, capacity uint32) bool {
		if len(capSeed) == 0 {
			return true
		}
		if len(capSeed) > 50 {
			capSeed = capSeed[:50]
		}
		caps := make([]float64, len(capSeed))
		for i, c := range capSeed {
			caps[i] = float64(c%1000) + 1
		}
		cap := float64(capacity%100000) + 1
		rates := Waterfill(cap, caps)
		var sum float64
		for i, r := range rates {
			if r < 0 {
				return false // no negative rates
			}
			if r > caps[i]+1e-6 {
				return false // never exceed per-flow cap
			}
			sum += r
		}
		if sum > cap+1e-6 {
			return false // never exceed capacity
		}
		// Work-conserving: either capacity is saturated or every flow
		// is at its cap.
		if sum < cap-1e-6 {
			for i, r := range rates {
				if r < caps[i]-1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWaterfillPropertyMaxMinFairness(t *testing.T) {
	// For any two flows, if one gets a lower rate than another, the
	// lower one must be at its own cap (defining property of max-min).
	f := func(capSeed []uint16, capacity uint32) bool {
		if len(capSeed) < 2 {
			return true
		}
		if len(capSeed) > 30 {
			capSeed = capSeed[:30]
		}
		caps := make([]float64, len(capSeed))
		for i, c := range capSeed {
			caps[i] = float64(c%500) + 1
		}
		cap := float64(capacity%50000) + 1
		rates := Waterfill(cap, caps)
		for i := range rates {
			for j := range rates {
				if rates[i] < rates[j]-1e-6 && rates[i] < caps[i]-1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// wakeOrder runs one transfer per (name, bytes) pair, all joining at
// time zero in the order given, and returns the names in the order
// their transfers returned, with the instant each did.
func wakeOrder(t *testing.T, l *Link, flowCap float64, names []string, bytes []int64) ([]string, []time.Duration) {
	t.Helper()
	var order []string
	var at []time.Duration
	for i, name := range names {
		n := bytes[i]
		l.sim.Spawn(name, func(p *Proc) {
			l.Transfer(p, n, flowCap)
			order = append(order, p.name())
			at = append(at, p.Now())
		})
	}
	if err := l.sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return order, at
}

func TestLinkSameInstantFinishersWakeByRemainingThenJoinOrder(t *testing.T) {
	// Equal sizes at equal rates: an exact tie in remaining at every
	// reshare, so the order the flows joined in decides, not the names.
	order, at := wakeOrder(t, NewLink(New(1), 1000), 100,
		[]string{"c", "a", "d", "b"}, []int64{100, 100, 100, 100})
	if got := fmt.Sprint(order); got != "[c a d b]" {
		t.Fatalf("wake order = %v, want [c a d b]", order)
	}
	for _, d := range at {
		if d != time.Second {
			t.Fatalf("finished at %v, want all at 1s", at)
		}
	}
	// 1500 and 1999 bytes at 1e12 B/s both round up to 2 ns: same
	// instant, and the smaller remainder goes first although it joined
	// last.
	order, at = wakeOrder(t, NewLink(New(1), 0), 1e12,
		[]string{"a", "z"}, []int64{1999, 1500})
	if got := fmt.Sprint(order); got != "[z a]" || at[0] != 2 || at[1] != 2 {
		t.Fatalf("wake order = %v at %v, want [z a] both at 2ns", order, at)
	}
}

func TestLinkZeroRateFlowParksUntilADeparture(t *testing.T) {
	// Waterfill only assigns a zero rate when the fair share
	// underflows, so the state is forced: once both flows have joined,
	// "starved" is stalled by hand and the event re-aimed the way a
	// reshare would leave it.
	s := New(1)
	l := NewLink(s, 100)
	done := map[string]time.Duration{}
	for _, name := range []string{"fed", "starved"} {
		s.Spawn(name, func(p *Proc) {
			l.Transfer(p, 100, 0)
			done[p.name()] = p.Now()
		})
	}
	s.Spawn("stall", func(p *Proc) {
		for i, f := range l.flows {
			if f.proc.name() == "starved" {
				f.rate = 0
			} else {
				l.next = i
			}
		}
		if n := s.Pending(); n != 1 {
			t.Errorf("Pending with two flows in flight = %d, want the link's one event", n)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// fed runs at its 50 B/s share for 2 s; starved moved nothing
	// meanwhile and then has the link to itself for 1 s.
	if done["fed"] != 2*time.Second || done["starved"] != 3*time.Second {
		t.Fatalf("done = %v, want fed at 2s and starved at 3s", done)
	}
}

// TestLinkLeavesNoDeadEvent: a membership change moves the link's
// completion event where it sits on the kernel's heap, so neither a
// steady burst (one cap, the caps within capacity: the single pass)
// nor a link past its capacity with two caps (the general path, which
// waterfills) leaves a canceled entry in the kernel's queues.
func TestLinkLeavesNoDeadEvent(t *testing.T) {
	s := New(1)
	l := NewLink(s, 1e9)
	check := func(when string) {
		if s.canceled != 0 {
			t.Fatalf("%s: %d canceled entries queued", when, s.canceled)
		}
	}
	join := func(at time.Duration, name string, bytes int64, flowCap float64) {
		s.Schedule(at, func() {
			l.TransferAsync(bytes, flowCap, func() { check(name + " done") })
			check(name + " joins")
		})
	}
	for i := 0; i < 16; i++ {
		join(time.Duration(i)*time.Millisecond, fmt.Sprintf("steady-%02d", i), 1<<20+int64(i)<<12, 50e6)
	}
	for i := 0; i < 32; i++ {
		join(100*time.Millisecond+time.Duration(i)*time.Millisecond, fmt.Sprintf("bound-%02d", i), 1<<20+int64(i)<<12, float64(40e6+i%2*20e6))
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	check("drained")
	if l.Transfers() != 48 || s.Pending() != 0 {
		t.Fatalf("after drain: %d transfers, %d pending", l.Transfers(), s.Pending())
	}
}

func TestLinkDrainLeavesNoEvent(t *testing.T) {
	load := func() (*Sim, *Link) {
		s := New(1)
		l := NewLink(s, 1000)
		for i := 0; i < 40; i++ {
			i := i
			s.Spawn(fmt.Sprintf("f%d", i), func(p *Proc) {
				p.Sleep(time.Duration(i%5) * time.Millisecond)
				l.Transfer(p, int64(100+i), float64(10+i%3))
			})
		}
		return s, l
	}
	// Stopped mid-flight, the link holds one live event however many
	// flows it carries.
	s, l := load()
	if err := s.RunUntil(2 * time.Millisecond); err != ErrSimLimit {
		t.Fatalf("RunUntil = %v, want ErrSimLimit", err)
	}
	if l.ActiveFlows() == 0 || !l.ev.pending() {
		t.Fatalf("mid-flight: %d flows, event pending %v", l.ActiveFlows(), l.ev.pending())
	}

	s, l = load()
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if l.ActiveFlows() != 0 || s.Pending() != 0 || l.ev.pending() {
		t.Fatalf("after drain: %d flows, %d pending events, link event pending %v",
			l.ActiveFlows(), s.Pending(), l.ev.pending())
	}
	if l.Transfers() != 40 {
		t.Fatalf("Transfers = %d, want 40", l.Transfers())
	}
}

// TestLinkFiredCompletionLeavesNoHandle: once the link's completion
// event has fired, the link holds no handle to it. fire drops the handle
// before it reshares, so the reshare schedules afresh (Sim.move on a
// zero handle is one Schedule, as on a spent one, so the order is the
// same) instead of cancelling a handle that already fired. Seen from
// inside each firing: a live event put in the link's handle as it fires
// is neither moved nor canceled by the reshare, the link ends with no
// handle or a pending one, and every transfer ends where it does with
// nothing planted.
func TestLinkFiredCompletionLeavesNoHandle(t *testing.T) {
	var bad string // set from the callbacks, which run off the test's goroutine
	run := func(plant bool) []time.Duration {
		s := New(1)
		l := NewLink(s, 1000)
		if plant {
			fire, fired := l.fireFn, 0
			l.fireFn = func() {
				fired++
				planted := s.Schedule(time.Hour, func() {})
				l.ev = planted
				fire()
				switch {
				case bad != "":
				case !planted.pending():
					bad = fmt.Sprintf("firing %d: the reshare moved or canceled the handle the link fired through", fired)
				case l.ev == planted || l.ev != (Event{}) && !l.ev.pending():
					bad = fmt.Sprintf("firing %d: the link holds a handle that is not its pending event", fired)
				}
				planted.Cancel()
			}
		}
		ends := make([]time.Duration, 12)
		for i := range ends {
			s.Spawn(fmt.Sprintf("f%d", i), func(p *Proc) {
				p.Sleep(time.Duration(i%4) * time.Millisecond)
				l.Transfer(p, int64(200+37*i), float64(40+i%3*40))
				ends[i] = p.Now()
			})
		}
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if l.ev != (Event{}) || s.Pending() != 0 {
			t.Fatalf("after drain: link handle %+v, %d events pending", l.ev, s.Pending())
		}
		return ends
	}
	want, got := run(false), run(true)
	if bad != "" {
		t.Fatal(bad)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("transfers end at %v with a handle planted, %v without", got, want)
	}
}

// TestLinkSteadyStateTransferAllocatesNothing: flows come from the
// link's free list and the table of cap sums grows once per flow count,
// so once the link has seen its peak concurrency a transfer of either
// form costs no allocation, on a link that stays busy and on one that
// drains and refills under another cap each time.
func TestLinkSteadyStateTransferAllocatesNothing(t *testing.T) {
	if destest.Race {
		t.Skip("the race detector allocates")
	}
	s := New(1)
	l := NewLink(s, 10e9)
	// 63 flows that outlast the measurement, then one proc timing its
	// own transfers among them.
	for i := 0; i < 63; i++ {
		s.Spawn(fmt.Sprintf("bg%d", i), func(p *Proc) { l.Transfer(p, 1<<40, 95e6) })
	}
	idle := NewLink(s, 10e9)
	var parked, async, burst, refill float64
	s.Spawn("probe", func(p *Proc) {
		parked = testing.AllocsPerRun(200, func() { l.Transfer(p, 1<<20, 95e6) })
		done := func() { p.Wake() }
		async = testing.AllocsPerRun(200, func() {
			l.TransferAsync(1<<20, 95e6, done)
			p.Park()
		})
		// Sixteen at once: the first run takes the link to 79 flows, a
		// count it has no sum for yet, and the rest find it there.
		landed := 0
		land := func() { landed++; p.Wake() }
		wave := func(l *Link, flowCap float64) {
			landed = 0
			for i := 0; i < 16; i++ {
				l.TransferAsync(int64(1<<20+i), flowCap, land)
			}
			for landed < 16 {
				p.Park()
			}
		}
		burst = testing.AllocsPerRun(100, func() { wave(l, 95e6) })
		caps := [2]float64{95e6, 80e6}
		runs := 0
		refill = testing.AllocsPerRun(100, func() { runs++; wave(idle, caps[runs%2]) })
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if parked != 0 || async != 0 || burst != 0 || refill != 0 {
		t.Fatalf("among 64 flows: Transfer %.1f allocs, TransferAsync %.1f, sixteen at once %.1f; sixteen on an idle link %.1f; want 0 each",
			parked, async, burst, refill)
	}
}

// TestLinkAsyncFiresWhereTheWakeWould runs seeded schedules of flows
// three times: every flow a process parked in Transfer, every flow a
// TransferAsync from that process, and the two forms alternating.
// Completion order (ties on remaining included), instants, event count
// and the link's counters must not tell the runs apart.
func TestLinkAsyncFiresWhereTheWakeWould(t *testing.T) {
	type flow struct {
		name   string
		arrive time.Duration
		bytes  int64
		cap    float64
	}
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		capacity := []float64{0, 1e6, 3e6, 1e9}[r.Intn(4)]
		flows := make([]flow, 1+r.Intn(40))
		size := int64(1 + r.Intn(100_000))
		for i := range flows {
			// Sizes and arrivals mostly shared: completions tie on
			// remaining and fall to the order the flows joined in.
			f := flow{name: fmt.Sprintf("f%d", (i*7)%len(flows)), bytes: size, cap: 1e6}
			if r.Intn(4) == 0 {
				f.bytes = int64(r.Intn(100_000)) // zero included
			}
			if r.Intn(4) == 0 {
				f.arrive = time.Duration(r.Intn(50)) * time.Millisecond
			}
			if r.Intn(6) == 0 {
				f.cap = 1e5 + 2e6*r.Float64()
			}
			flows[i] = f
		}
		run := func(async func(i int) bool) (log []string, fired int64, transfers int64, moved float64) {
			s := New(1)
			l := NewLink(s, capacity)
			for i, f := range flows {
				s.Spawn(f.name, func(p *Proc) {
					p.Sleep(f.arrive)
					landed := func() { log = append(log, fmt.Sprintf("%s @%d", f.name, s.Now())) }
					switch {
					case !async(i):
						l.Transfer(p, f.bytes, f.cap)
						landed()
					case f.bytes > 0:
						l.TransferAsync(f.bytes, f.cap, landed)
					default:
						// Transfer returns at once on zero bytes; the async form
						// takes one event to say so.
						landed()
					}
				})
			}
			if err := s.Run(); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if l.ActiveFlows() != 0 || s.Pending() != 0 {
				t.Fatalf("trial %d: %d flows, %d events left", trial, l.ActiveFlows(), s.Pending())
			}
			return log, s.Fired(), l.Transfers(), l.BytesMoved()
		}
		wantLog, wantFired, wantN, wantMoved := run(func(int) bool { return false })
		for name, async := range map[string]func(int) bool{
			"async":       func(int) bool { return true },
			"alternating": func(i int) bool { return i%2 == 0 },
		} {
			log, fired, n, moved := run(async)
			if !slices.Equal(log, wantLog) {
				t.Fatalf("trial %d, %s: completions\n got %v\nwant %v", trial, name, log, wantLog)
			}
			if fired != wantFired || n != wantN || moved != wantMoved {
				t.Fatalf("trial %d, %s: %d events, %d transfers, %.0f bytes; parked form %d, %d, %.0f",
					trial, name, fired, n, moved, wantFired, wantN, wantMoved)
			}
		}
	}
}

func TestLinkAsyncZeroBytesIsOneEvent(t *testing.T) {
	s := New(1)
	l := NewLink(s, 1000)
	ran := false
	s.Spawn("p", func(p *Proc) {
		l.TransferAsync(0, 0, func() { ran = true })
		if ran {
			t.Error("done ran inside TransferAsync")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran || s.Now() != 0 || l.Transfers() != 0 {
		t.Fatalf("ran %v at %v with %d transfers, want true at 0 with none", ran, s.Now(), l.Transfers())
	}
}

// TestLinkShortcutMatchesWaterfillAtTheBrim walks the sum of caps
// across the capacity in steps from one ulp to a part in a thousand:
// on either side of fitSlack, assignRates must hand out exactly what
// Waterfill computes for the flows sorted by (remaining, join order).
func TestLinkShortcutMatchesWaterfillAtTheBrim(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	shortcut, general := 0, 0
	for trial := 0; trial < 4000; trial++ {
		n := 1 + r.Intn(300)
		flows := make([]*Flow, n)
		var sum float64
		uniform := []float64{95e6, 1e9 / 3, 1 + r.Float64()*1e9}[r.Intn(3)]
		for i := range flows {
			c := uniform
			if trial%4 == 3 {
				c = 1 + r.Float64()*1e9 // mixed caps
			}
			flows[i] = &Flow{remaining: float64(n - i), cap: c, seq: uint64(i)}
			sum += c
		}
		// sum scaled by 1+k*2^-e, k in [-8, 8], e from 52 (ulps) to 10.
		capacity := sum * (1 + float64(r.Intn(17)-8)*math.Ldexp(1, -(10+r.Intn(43))))
		l := NewLink(New(1), capacity)
		l.flows = flows
		if sum <= l.fit {
			shortcut++
		} else {
			general++
		}
		l.assignRates()

		// flows was built in descending remaining; assignRates may
		// have sorted it ascending in place.
		if flows[0].remaining > flows[n-1].remaining {
			slices.Reverse(flows)
		}
		caps := make([]float64, n)
		for i, f := range flows {
			caps[i] = f.cap
		}
		want := oracleWaterfill(capacity, caps)
		for i, f := range flows {
			if math.Float64bits(f.rate) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d (n=%d, sum/capacity-1 = %g): rate %v, waterfill %v",
					trial, n, sum/capacity-1, f.rate, want[i])
			}
		}
	}
	if shortcut < 500 || general < 500 {
		t.Fatalf("took the shortcut %d times and the general path %d: the walk misses a side", shortcut, general)
	}
}
