package des

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// The differential tests drive the production Link and the pre-PR-13
// oracleLink with the same seeded schedule and demand the same
// history: every transfer completes at the same nanosecond, procs
// resume in the same order (also relative to unrelated events at the
// same instants), and the kernel fires the same number of events.

// diffLink is what a schedule needs of either implementation.
type diffLink interface {
	Transfer(p *Proc, bytes int64, flowCap float64)
	BytesMoved() float64
	Transfers() int64
	ActiveFlows() int
}

type diffXfer struct {
	gap   time.Duration // slept before the transfer
	bytes int64
	cap   float64
}

type diffFlow struct {
	name  string
	start time.Duration
	xfers []diffXfer
}

// diffTick is a bystander proc: it sets its alarm for at when the
// clock reads armed, and on waking yields once more at the same
// instant, so its two steps bracket whatever the link does then.
type diffTick struct {
	armed, at time.Duration
}

// diffSchedule is one seeded workload: flows that each run a series
// of transfers, plus tickers that put unrelated events, scheduled
// between the link's membership changes, at the instants flows finish.
type diffSchedule struct {
	capacity float64
	flows    []diffFlow
	ticks    []diffTick
}

// diffStep is one line of a run's history: who resumed, after which
// of its transfers (-1 and -2 for a ticker's two steps), and when.
type diffStep struct {
	who string
	k   int
	at  time.Duration
}

type diffResult struct {
	steps     []diffStep
	fired     int64
	end       time.Duration
	bytes     float64
	transfers int64
}

func runSchedule(t *testing.T, sc diffSchedule, mk func(*Sim) diffLink) diffResult {
	t.Helper()
	s := New(1)
	l := mk(s)
	var res diffResult
	for _, f := range sc.flows {
		f := f
		s.Spawn(f.name, func(p *Proc) {
			p.Sleep(f.start)
			for k, x := range f.xfers {
				if x.gap > 0 {
					p.Sleep(x.gap)
				}
				l.Transfer(p, x.bytes, x.cap)
				res.steps = append(res.steps, diffStep{f.name, k, p.Now()})
			}
		})
	}
	for i, tick := range sc.ticks {
		tick := tick
		s.Spawn(fmt.Sprintf("tick%d", i), func(p *Proc) {
			p.Sleep(tick.armed)
			p.Sleep(tick.at - tick.armed)
			res.steps = append(res.steps, diffStep{p.Name(), -1, p.Now()})
			p.Sleep(0)
			res.steps = append(res.steps, diffStep{p.Name(), -2, p.Now()})
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := l.ActiveFlows(); n != 0 {
		t.Fatalf("ActiveFlows after drain = %d", n)
	}
	if n := s.Pending(); n != 0 {
		t.Fatalf("Pending after drain = %d", n)
	}
	res.fired, res.end = s.Fired(), s.Now()
	res.bytes, res.transfers = l.BytesMoved(), l.Transfers()
	return res
}

// diffSchedules runs sc on both implementations and reports the first
// difference between the two histories.
func diffSchedules(t *testing.T, sc diffSchedule) error {
	t.Helper()
	got := runSchedule(t, sc, func(s *Sim) diffLink { return NewLink(s, sc.capacity) })
	want := runSchedule(t, sc, func(s *Sim) diffLink { return newOracleLink(s, sc.capacity) })
	if len(got.steps) != len(want.steps) {
		return fmt.Errorf("%d steps, oracle %d", len(got.steps), len(want.steps))
	}
	for i := range want.steps {
		if got.steps[i] != want.steps[i] {
			return fmt.Errorf("step %d = %+v, oracle %+v", i, got.steps[i], want.steps[i])
		}
	}
	if got.fired != want.fired || got.end != want.end {
		return fmt.Errorf("fired %d ending at %v, oracle %d at %v", got.fired, got.end, want.fired, want.end)
	}
	if got.bytes != want.bytes || got.transfers != want.transfers {
		return fmt.Errorf("moved %v in %d, oracle %v in %d", got.bytes, got.transfers, want.bytes, want.transfers)
	}
	return nil
}

const diffCap = 95e6 // the paper profile's per-connection ceiling

// The axes of the differential sweep.
var (
	diffCapModes = map[string]func(r *rand.Rand) float64{
		"uncapped": func(*rand.Rand) float64 { return 0 },
		"uniform":  func(*rand.Rand) float64 { return diffCap },
		// A third of a GB/s leaves residues in every division.
		"mixed": func(r *rand.Rand) float64 {
			return []float64{0, 10e6, diffCap, diffCap, 1e9 / 3}[r.Intn(5)]
		},
	}
	// Capacity as a function of the flow count, sized against diffCap.
	diffCapacityModes = map[string]func(n int) float64{
		"unlimited": func(int) float64 { return 0 },
		"slack":     func(n int) float64 { return 4 * diffCap * float64(n) },
		"bound":     func(n int) float64 { return 0.3 * diffCap * float64(n) },
		// Exactly the sum of uniform caps: inside fitSlack, so the
		// general path runs although nothing is throttled.
		"brim": func(n int) float64 { return diffCap * float64(n) },
	}
	diffArrivalModes = map[string]func(r *rand.Rand) time.Duration{
		"together":  func(*rand.Rand) time.Duration { return 0 },
		"staggered": func(r *rand.Rand) time.Duration { return time.Duration(r.Int63n(int64(20 * time.Millisecond))) },
		"grid":      func(r *rand.Rand) time.Duration { return time.Duration(r.Intn(8)) * time.Millisecond },
		// Half on the grid, half between: arrivals that reshare the
		// link without moving a finisher already due on the grid.
		"offgrid": func(r *rand.Rand) time.Duration {
			at := time.Duration(r.Intn(8)) * time.Millisecond
			if r.Intn(2) == 0 {
				at += time.Duration(r.Int63n(int64(time.Millisecond)))
			}
			return at
		},
	}
)

// genSchedule draws n flows. Sizes mix equal megabytes (exact ties in
// remaining, broken by name), whole milliseconds' worth at diffCap
// (completions landing on the tickers' instants), odd sizes and
// one-to-three-byte transfers (sub-byte residues at high rates).
func genSchedule(r *rand.Rand, n int, capacity float64, capOf func(*rand.Rand) float64, arrive func(*rand.Rand) time.Duration) diffSchedule {
	sc := diffSchedule{capacity: capacity}
	rounds := 3
	if n > 100 {
		rounds = 2
	}
	for i := 0; i < n; i++ {
		f := diffFlow{name: fmt.Sprintf("f%03d", r.Intn(1000)*1000+i), start: arrive(r)}
		for k := 0; k < 1+r.Intn(rounds); k++ {
			x := diffXfer{cap: capOf(r)}
			switch r.Intn(4) {
			case 0:
				x.bytes = 1 << 20
			case 1:
				x.bytes = int64(1+r.Intn(4)) * diffCap / 1000
			case 2:
				x.bytes = 1 + r.Int63n(4<<20)
			case 3:
				x.bytes = 1 + r.Int63n(3)
			}
			if r.Intn(3) == 0 {
				x.gap = arrive(r)
			}
			f.xfers = append(f.xfers, x)
		}
		sc.flows = append(sc.flows, f)
	}
	for i := 0; i < 24; i++ {
		armed := time.Duration(r.Int63n(int64(12 * time.Millisecond)))
		sc.ticks = append(sc.ticks, diffTick{armed, armed.Truncate(time.Millisecond) + time.Millisecond})
	}
	return sc
}

func TestLinkDifferential(t *testing.T) {
	// Two seeds per size up to 64 flows, one above, and 300 flows only
	// arriving together: the oracle's cost is quadratic in the flow
	// count, and the race detector multiplies it.
	sizes, smallSeeds := []int{1, 2, 3, 7, 13, 33, 64, 150, 300}, 2
	if testing.Short() {
		sizes, smallSeeds = []int{1, 3, 13, 64, 300}, 1
	}
	for capName, capOf := range diffCapModes {
		for capacityName, capacityOf := range diffCapacityModes {
			for arriveName, arrive := range diffArrivalModes {
				name := capName + "/" + capacityName + "/" + arriveName
				t.Run(name, func(t *testing.T) {
					for _, n := range sizes {
						seeds := smallSeeds
						if n > 64 {
							seeds = 1
						}
						if n > 150 && arriveName != "together" {
							continue
						}
						for seed := 0; seed < seeds; seed++ {
							r := rand.New(rand.NewSource(int64(n*100 + seed)))
							if err := diffSchedules(t, genSchedule(r, n, capacityOf(n), capOf, arrive)); err != nil {
								t.Fatalf("n=%d seed=%d: %v", n, seed, err)
							}
						}
					}
				})
			}
		}
	}
}

// TestLinkDifferentialProbeShape is the benchmark harness's
// link_transfer probe at reduced size: every proc has the same name,
// so only remaining orders the finishers.
func TestLinkDifferentialProbeShape(t *testing.T) {
	for _, flows := range []int{8, 256} {
		sc := diffSchedule{capacity: 10e9}
		for f := 0; f < flows; f++ {
			df := diffFlow{name: "flow"}
			for k := 0; k < 512/flows+1; k++ {
				df.xfers = append(df.xfers, diffXfer{bytes: int64(1<<20 + ((f*31+k*17)%64)<<14 + f), cap: diffCap})
			}
			sc.flows = append(sc.flows, df)
		}
		if err := diffSchedules(t, sc); err != nil {
			t.Fatalf("flows=%d: %v", flows, err)
		}
	}
}

func TestWaterfillDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	palette := []float64{math.Inf(1), 10e6, diffCap, diffCap, 1e9 / 3, 7}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(300)
		caps := make([]float64, n)
		var sum float64
		for i := range caps {
			caps[i] = palette[r.Intn(len(palette))]
			if r.Intn(4) == 0 {
				caps[i] = 1 + r.Float64()*1e8
			}
			if !math.IsInf(caps[i], 1) {
				sum += caps[i]
			}
		}
		capacity := []float64{0, -1, sum, sum * 0.37, sum * 3, 1}[r.Intn(6)]
		got, want := Waterfill(capacity, caps), oracleWaterfill(capacity, caps)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d rates, oracle %d", trial, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d (n=%d capacity=%v): rates[%d] = %v, oracle %v", trial, n, capacity, i, got[i], want[i])
			}
		}
	}
}

// TestLinkDifferentialUnderflow is the one way waterfill hands out a
// zero rate: a capacity of one denormal unit, whose third underflows.
// Two flows park with no event; the last crawls, rescheduling itself
// every nanosecond, until the event limit ends both runs alike.
func TestLinkDifferentialUnderflow(t *testing.T) {
	run := func(mk func(*Sim) diffLink) (time.Duration, int64, error) {
		s := New(1)
		s.MaxEvents = 500
		l := mk(s)
		for i := 0; i < 3; i++ {
			s.Spawn(fmt.Sprintf("f%d", i), func(p *Proc) { l.Transfer(p, 100, 0) })
		}
		err := s.Run()
		return s.Now(), s.Fired(), err
	}
	const capacity = 5e-324
	now, fired, err := run(func(s *Sim) diffLink { return NewLink(s, capacity) })
	wantNow, wantFired, wantErr := run(func(s *Sim) diffLink { return newOracleLink(s, capacity) })
	if err != ErrSimLimit || wantErr != ErrSimLimit {
		t.Fatalf("Run = %v, oracle %v, want ErrSimLimit from both", err, wantErr)
	}
	if now != wantNow || fired != wantFired {
		t.Fatalf("stopped at %v after %d events, oracle at %v after %d", now, fired, wantNow, wantFired)
	}
}
