package des

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/des/destest"
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
	// async flows run on the production Link as a chain of
	// TransferAsync callbacks, each starting the next transfer, the
	// shape of a store stream; the oracle, which has no such form, runs
	// them as a process under the same name. Their gaps must be zero.
	async bool
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

// linkOracle holds the production Link to oracleLink.
var linkOracle = destest.Pair[diffSchedule]{
	New: linkForm(func(s *Sim, capacity float64) diffLink { return NewLink(s, capacity) }),
	Old: linkForm(func(s *Sim, capacity float64) diffLink { return newOracleLink(s, capacity) }),
}

// linkForm plays a schedule on the link mk builds: who resumed, after
// which of its transfers (-1 and -2 for a ticker's two steps), and when,
// then the link's totals. Of the production Link's completion events
// only, and compared with nothing, it counts how many took the single
// pass ("single"), how many the general path ("general"), and how many
// found their flow unfinished and kept it ("kept").
func linkForm(mk func(*Sim, float64) diffLink) destest.Form[diffSchedule] {
	return func(t *testing.T, sc diffSchedule, tr *destest.Transcript) destest.Run {
		s := New(1)
		// Far above what any schedule here fires: a link that reschedules
		// itself at one instant forever fails its test, not the package's
		// timeout.
		s.MaxEvents = 1 << 22
		l := mk(s, sc.capacity)
		production, _ := l.(*Link)
		if production != nil {
			fire := production.fireFn
			production.fireFn = func() {
				done := production.transfersRun
				if production.steadyWith(len(production.flows)) {
					tr.Counts["single"]++
				} else {
					tr.Counts["general"]++
				}
				fire()
				if production.transfersRun == done {
					tr.Counts["kept"]++
				}
			}
		}
		for _, f := range sc.flows {
			f := f
			s.Spawn(f.name, func(p *Proc) {
				p.Sleep(f.start)
				if f.async && production != nil {
					k := 0
					var next func()
					next = func() {
						if k > 0 {
							tr.Logf("%s %d @%d", f.name, k-1, s.Now())
						}
						if k < len(f.xfers) {
							x := f.xfers[k]
							k++
							production.TransferAsync(f.name, x.bytes, x.cap, next)
						}
					}
					next()
					return
				}
				for k, x := range f.xfers {
					if x.gap > 0 {
						p.Sleep(x.gap)
					}
					l.Transfer(p, x.bytes, x.cap)
					tr.Logf("%s %d @%d", f.name, k, p.Now())
				}
			})
		}
		for i, tick := range sc.ticks {
			tick := tick
			s.Spawn(fmt.Sprintf("tick%d", i), func(p *Proc) {
				p.Sleep(tick.armed)
				p.Sleep(tick.at - tick.armed)
				tr.Logf("%s -1 @%d", p.name, p.Now())
				p.Sleep(0)
				tr.Logf("%s -2 @%d", p.name, p.Now())
			})
		}
		return destest.Run{Kernel: s, After: func() {
			if n := l.ActiveFlows(); n != 0 {
				t.Fatalf("ActiveFlows after drain = %d", n)
			}
			if n := s.Pending(); n != 0 {
				t.Fatalf("Pending after drain = %d", n)
			}
			tr.Logf("moved %v in %d", l.BytesMoved(), l.Transfers())
		}}
	}
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
							linkOracle.Check(t, fmt.Sprintf("n=%d seed=%d", n, seed), genSchedule(r, n, capacityOf(n), capOf, arrive), -1)
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
		linkOracle.Check(t, fmt.Sprintf("flows=%d", flows), sc, -1)
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

// The schedules below cross between the production Link's two paths
// mid-run: the single pass a steady link takes at a change (one cap,
// every flow at it, the count within fit) and the general advance,
// assignRates and reshare. Each is held to the oracle like the sweep
// above, and to having taken both paths.

// capsSum is assignRates' sum for n flows capped at c.
func capsSum(n int, c float64) float64 {
	var sum float64
	for i := 0; i < n; i++ {
		sum += c
	}
	return sum
}

// spread gives flow i of a schedule a name out of spawn order, so that
// ties on remaining do not fall the way the flows were listed.
func spread(prefix string, i int) string { return fmt.Sprintf("%s%03d", prefix, (i*37)%101) }

// brimSchedule keeps n-1 flows capped at c in flight for some 90 ms and
// has visitors capped alike come and go one or two at a time, so the
// flow count walks n-1, n, n+1 and back while n caps sit at the brim of
// capacity. Sizes are in milliseconds at c; every other flow is a chain
// of callbacks.
func brimSchedule(n int, c, capacity float64) diffSchedule {
	ms := func(x float64) int64 { return int64(x * c / 1000) }
	sc := diffSchedule{capacity: capacity}
	for i := 0; i < n-1; i++ {
		sc.flows = append(sc.flows, diffFlow{
			name:  spread("bg", i),
			async: i%2 == 1,
			xfers: []diffXfer{{bytes: ms(90) + int64(i)*4097, cap: c}, {bytes: ms(1), cap: c}},
		})
	}
	visit := func(at time.Duration, async bool, sizes ...int64) {
		f := diffFlow{name: spread("v", len(sc.flows)), start: at, async: async}
		for _, b := range sizes {
			f.xfers = append(f.xfers, diffXfer{bytes: b, cap: c})
		}
		sc.flows = append(sc.flows, f)
	}
	visit(5*time.Millisecond, false, ms(3)+1)
	visit(10*time.Millisecond, true, ms(2), ms(2), 3)
	visit(20*time.Millisecond, false, ms(6)) // overlaps the next: n+1 in flight
	visit(22*time.Millisecond, true, ms(2)+7)
	visit(30*time.Millisecond, false, 1, 3, ms(1))
	visit(40*time.Millisecond, true, ms(4))
	visit(40*time.Millisecond, false, ms(4)) // two arrivals of one instant, tied on remaining
	for _, at := range []time.Duration{8, 12, 14, 24, 26, 44} {
		at *= time.Millisecond
		sc.ticks = append(sc.ticks, diffTick{at - 300*time.Microsecond, at})
	}
	return sc
}

func TestLinkDifferentialAcrossTheBrim(t *testing.T) {
	exps := []int{52, 45, 30, 21, 20, 19, 14, 10}
	if testing.Short() {
		exps = []int{52, 21, 19, 10}
	}
	var single, general int64
	for _, n := range []int{2, 7, 48} {
		for _, c := range []float64{diffCap, 1e9 / 3} {
			// n caps land a relative k*2^-e away from fit, where the single
			// pass must give way, and from the capacity, where rates
			// start to fall: from an ulp to a part in a thousand.
			for anchor, scale := range map[string]float64{"fit": 1 / (1 - fitSlack), "capacity": 1} {
				for _, e := range exps {
					for _, k := range []float64{-3, -1, 0, 1, 3} {
						capacity := capsSum(n, c) * (1 + k*math.Ldexp(1, -e)) * scale
						got, _ := linkOracle.Check(t, fmt.Sprintf("n=%d cap=%v, %d*2^-%d off the %s", n, c, int(k), e, anchor), brimSchedule(n, c, capacity), -1)
						single, general = single+got.Counts["single"], general+got.Counts["general"]
					}
				}
			}
		}
	}
	t.Logf("%d completions took the single pass, %d the general path", single, general)
	if single < 1000 || general < 1000 {
		t.Fatalf("%d completions took the single pass and %d the general path: the walk misses a side", single, general)
	}
}

// TestLinkDifferentialVisitorsWithOtherCaps has one flow with another
// cap, then one with none, join and leave a population capped alike;
// in the second phase the visitor is the first flow on an empty link,
// so the one cap is the visitor's until the link drains again.
func TestLinkDifferentialVisitorsWithOtherCaps(t *testing.T) {
	const n = 12
	ms := func(x float64) int64 { return int64(x * diffCap / 1000) }
	for capacityName, capacity := range map[string]float64{
		"unlimited": 0,
		"slack":     4 * diffCap * n,
		// Room for the odd caps, none for a flow without one: it takes
		// what is left and the link is bound while it lasts.
		"tight": 1.5 * diffCap * n,
	} {
		for visitorName, visitorCap := range map[string]float64{"lower": 10e6, "thirds": 1e9 / 3, "uncapped": 0} {
			sc := diffSchedule{capacity: capacity}
			for phase, start := range []time.Duration{0, 200 * time.Millisecond} {
				if phase == 1 {
					sc.flows = append(sc.flows, diffFlow{name: "a-first", start: start,
						xfers: []diffXfer{{bytes: ms(5), cap: visitorCap}}})
				}
				for i := 0; i < n; i++ {
					sc.flows = append(sc.flows, diffFlow{name: spread(fmt.Sprintf("p%d-", phase), i), start: start, async: i%2 == 0,
						xfers: []diffXfer{{bytes: ms(4) + int64(i), cap: diffCap}, {bytes: ms(3), cap: diffCap}, {bytes: ms(6) - int64(i), cap: diffCap}}})
				}
				sc.flows = append(sc.flows,
					diffFlow{name: "visitor", start: start + 3*time.Millisecond, async: phase == 1,
						xfers: []diffXfer{{bytes: ms(0.2), cap: visitorCap}, {bytes: 2, cap: visitorCap}}},
					diffFlow{name: "again", start: start + 9*time.Millisecond,
						xfers: []diffXfer{{bytes: ms(0.5), cap: visitorCap}, {gap: time.Millisecond, bytes: ms(0.1), cap: visitorCap}}})
				for _, at := range []time.Duration{4, 5, 8, 10, 11} {
					at = start + at*time.Millisecond
					sc.ticks = append(sc.ticks, diffTick{at - 100*time.Microsecond, at})
				}
			}
			got, _ := linkOracle.Check(t, fmt.Sprintf("%s link, %s visitor", capacityName, visitorName), sc, -1)
			if got.Counts["single"] == 0 || got.Counts["general"] == 0 {
				t.Fatalf("%s link, %s visitor: %d completions took the single pass, %d the general path", capacityName, visitorName, got.Counts["single"], got.Counts["general"])
			}
		}
	}
}

// TestLinkDifferentialOneCapPerBusyPeriod drains a link between two
// populations, each capped alike but not like the other: the one cap is
// the cap of whichever flow finds the link empty, so both populations
// take the single pass at every completion.
func TestLinkDifferentialOneCapPerBusyPeriod(t *testing.T) {
	sc := diffSchedule{capacity: 10e9}
	for period, c := range []float64{10e6, diffCap, 1e9 / 3} {
		for i := 0; i < 6; i++ {
			sc.flows = append(sc.flows, diffFlow{name: spread(fmt.Sprintf("p%d-", period), i), start: time.Duration(period) * time.Second, async: i%2 == 0,
				xfers: []diffXfer{{bytes: int64(c/100) + int64(i), cap: c}, {bytes: int64(c / 200), cap: c}}})
		}
	}
	got, _ := linkOracle.Check(t, t.Name(), sc, -1)
	if got.Counts["single"] != 36 || got.Counts["general"] != 0 {
		t.Fatalf("%d completions took the single pass, %d the general path, want all 36 the single pass", got.Counts["single"], got.Counts["general"])
	}
}

// TestLinkDifferentialDrainsIntoTheSinglePass starts a link bound
// (thirty flows where nine fit) and lets it drain: the change that first
// finds it fitting hands out the caps through assignRates, and only the
// one after takes the single pass. Late arrivals then bind it again.
func TestLinkDifferentialDrainsIntoTheSinglePass(t *testing.T) {
	for _, c := range []float64{diffCap, 1e9 / 3} {
		ms := func(x float64) int64 { return int64(x * c / 1000) }
		sc := diffSchedule{capacity: 10 * c} // ten caps are over fit by fitSlack
		for i := 0; i < 30; i++ {
			sc.flows = append(sc.flows, diffFlow{name: spread("d", i), async: i%3 == 0,
				xfers: []diffXfer{{bytes: ms(float64(1 + i)), cap: c}, {bytes: ms(2), cap: c}}})
		}
		for i := 0; i < 12; i++ {
			sc.flows = append(sc.flows, diffFlow{name: spread("late", i), start: 140 * time.Millisecond, async: i%2 == 0,
				xfers: []diffXfer{{bytes: ms(3) + int64(i%4), cap: c}}})
		}
		for at := 20 * time.Millisecond; at < 200*time.Millisecond; at += 20 * time.Millisecond {
			sc.ticks = append(sc.ticks, diffTick{at - time.Millisecond, at})
		}
		got, _ := linkOracle.Check(t, fmt.Sprintf("cap %v", c), sc, -1)
		if got.Counts["single"] < 8 || got.Counts["general"] < 40 {
			t.Fatalf("cap %v: %d completions took the single pass, %d the general path", c, got.Counts["single"], got.Counts["general"])
		}
	}
}

// TestLinkDifferentialBursts joins many flows at one instant, again and
// again while earlier ones are in flight, and chains every callback
// flow's next transfer at the instant the last one completed: changes
// with no time between them, where the single pass is the search alone.
func TestLinkDifferentialBursts(t *testing.T) {
	ms := func(x float64) int64 { return int64(x * diffCap / 1000) }
	for capacityName, capacity := range map[string]float64{"unlimited": 0, "slack": 4 * diffCap * 60, "brim": diffCap * 40} {
		sc := diffSchedule{capacity: capacity}
		for burst, at := range []time.Duration{0, 2 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond, 5*time.Millisecond + 1, 9 * time.Millisecond} {
			for i := 0; i < 10; i++ {
				// Sizes repeat within and across bursts: flows of one burst tie
				// on remaining and fall to their names.
				sc.flows = append(sc.flows, diffFlow{name: spread(fmt.Sprintf("b%d-", burst), i), start: at, async: i%2 == 0,
					xfers: []diffXfer{{bytes: ms(float64(1 + i%3)), cap: diffCap}, {bytes: ms(1), cap: diffCap}, {bytes: 1 + int64(i%2), cap: diffCap}}})
			}
		}
		for at := time.Millisecond; at <= 12*time.Millisecond; at += time.Millisecond {
			sc.ticks = append(sc.ticks, diffTick{at - 10*time.Microsecond, at})
		}
		got, _ := linkOracle.Check(t, fmt.Sprintf("%s link", capacityName), sc, -1)
		if got.Counts["single"] == 0 {
			t.Fatalf("%s link: no completion took the single pass", capacityName)
		}
	}
}

// TestLinkDifferentialTies has every completion tie exactly on
// remaining. With names apart the name decides, whichever form the flow
// has; twins (one name, one series of transfers) and a whole population
// named alike, the harness probe's shape, fall to position, which the
// oracle does not define: the history reads the same whichever twin
// goes first, and TestLinkTwinsFinishInJoinOrder pins which does.
func TestLinkDifferentialTies(t *testing.T) {
	series := []diffXfer{{bytes: 1 << 20, cap: diffCap}, {bytes: 1 << 20, cap: diffCap}, {bytes: 3 << 19, cap: diffCap}}
	named := func(name func(i int) string) diffSchedule {
		sc := diffSchedule{capacity: 10e9}
		for i := 0; i < 16; i++ {
			sc.flows = append(sc.flows, diffFlow{name: name(i), async: i%2 == 0, xfers: series})
		}
		for _, at := range []time.Duration{11037642, 22075284} { // one and two MiB at diffCap
			sc.ticks = append(sc.ticks, diffTick{at - time.Microsecond, at})
		}
		return sc
	}
	for shape, sc := range map[string]diffSchedule{
		"names apart": named(func(i int) string { return spread("t", i) }),
		"twins":       named(func(i int) string { return spread("t", i/2) }),
		"named alike": named(func(int) string { return "flow" }),
	} {
		got, _ := linkOracle.Check(t, shape, sc, -1)
		if got.Counts["single"] != 48 || got.Counts["general"] != 0 {
			t.Fatalf("%s: %d completions took the single pass, %d the general path, want all 48 the single pass", shape, got.Counts["single"], got.Counts["general"])
		}
	}
}

// TestLinkTwinsFinishInJoinOrder pins what the oracle leaves open:
// flows that tie on remaining and on name complete in the order they
// joined, on either path.
func TestLinkTwinsFinishInJoinOrder(t *testing.T) {
	for pathName, capacity := range map[string]float64{"single pass": 0, "general path": 2 * diffCap} {
		s := New(1)
		s.MaxEvents = 1 << 22
		l := NewLink(s, capacity)
		var order []int
		for i := 0; i < 5; i++ {
			l.TransferAsync("twin", 1<<20, diffCap, func() { order = append(order, i) })
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(order) != "[0 1 2 3 4]" {
			t.Errorf("%s: twins completed in order %v, want the order they joined in", pathName, order)
		}
	}
}

// TestLinkDifferentialKeepsAnUnfinishedFlow moves petabytes, months
// of virtual time apart: over such a stretch the elapsed seconds round
// by nanoseconds, so the flow a completion event fires for can be left
// more than half a byte, and the link must keep it and try again, the
// other flows advanced once and the kept one not twice.
func TestLinkDifferentialKeepsAnUnfinishedFlow(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	kept := int64(0)
	for _, c := range []float64{diffCap, 1e9 / 3} {
		for n := 1; n <= 6; n++ {
			for seed := 0; seed < 4; seed++ {
				sc := diffSchedule{capacity: 0}
				for i := 0; i < n; i++ {
					big := int64(i+1)*7e15 + r.Int63n(1e12)
					sc.flows = append(sc.flows, diffFlow{name: spread("h", i), async: i%2 == 1,
						xfers: []diffXfer{{bytes: big, cap: c}, {bytes: big / 3, cap: c}}})
				}
				got, _ := linkOracle.Check(t, fmt.Sprintf("cap=%v n=%d seed=%d", c, n, seed), sc, -1)
				if got.Counts["general"] != 0 {
					t.Fatalf("cap=%v n=%d seed=%d: %d completions took the general path", c, n, seed, got.Counts["general"])
				}
				kept += got.Counts["kept"]
			}
		}
	}
	if kept < 10 {
		t.Fatalf("the threshold kept a flow %d times: the sizes no longer reach it", kept)
	}
}

// TestLinkRatesThroughJoinAndFire walks the sum of caps across the
// capacity as TestLinkShortcutMatchesWaterfillAtTheBrim does, but
// reaches the brim the way a run does, a join and a completion at a
// time, and after every change holds each flow's rate to Waterfill's
// over the flows in (remaining, name) order, bit for bit, and the
// link's steady-state bookkeeping to the flows it describes.
func TestLinkRatesThroughJoinAndFire(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	trials := 3000
	if testing.Short() {
		trials = 600
	}
	var single, general, shaved int
	for trial := 0; trial < trials; trial++ {
		n := 1 + r.Intn(100)
		uniform := []float64{diffCap, 1e9 / 3, 1 + r.Float64()*1e9}[r.Intn(3)]
		caps := make([]float64, n+2)
		for i := range caps {
			caps[i] = uniform
			if trial%4 == 3 && r.Intn(3) == 0 {
				caps[i] = []float64{0, 10e6, 1 + r.Float64()*1e9}[r.Intn(3)]
			}
		}
		var sum float64
		for _, c := range caps[:n] {
			sum += c
		}
		// sum scaled by 1+k*2^-e, k in [-8, 8], e from 52 (ulps) to 10.
		capacity := sum * (1 + float64(r.Intn(17)-8)*math.Ldexp(1, -(10+r.Intn(43))))
		if sum == 0 {
			capacity = 1e9 // every flow uncapped
		}
		s := New(1)
		s.MaxEvents = 1 << 22
		l := NewLink(s, capacity)
		check := func(what string) {
			t.Helper()
			if l.steadyWith(len(l.flows)) {
				single++
			} else {
				general++
			}
			flows := slices.Clone(l.flows)
			slices.SortStableFunc(flows, func(a, b *Flow) int {
				if a.before(b) {
					return -1
				}
				if b.before(a) {
					return 1
				}
				return 0
			})
			sorted := make([]float64, len(flows))
			odd, within := 0, 0.0
			for i, f := range flows {
				sorted[i] = f.cap
				within += f.cap
				if f.cap != l.cap1 || math.IsInf(f.cap, 1) {
					odd++
				}
			}
			atCap := true
			for i, want := range oracleWaterfill(capacity, sorted) {
				if math.Float64bits(flows[i].rate) != math.Float64bits(want) {
					t.Fatalf("trial %d, %s with %d in flight (sum/capacity-1 = %g): %s runs at %v, waterfill gives it %v",
						trial, what, len(flows), within/capacity-1, flows[i].name, flows[i].rate, want)
				}
				atCap = atCap && want == flows[i].cap
			}
			if !atCap && within <= capacity {
				shaved++ // within the capacity, and still not the caps: what fitSlack is for
			}
			if steady := l.steadyWith(len(flows)); l.odd != odd || steady && !atCap {
				t.Fatalf("trial %d, %s: link counts %d odd caps of %d and says steady=%v; the flows have %d, at their caps: %v",
					trial, what, l.odd, len(flows), steady, odd, atCap)
			}
			for k := 1; k < len(l.sums); k++ {
				if l.sums[k] != capsSum(k, l.cap1) {
					t.Fatalf("trial %d, %s: sums[%d] = %v, %d caps of %v add up to %v", trial, what, k, l.sums[k], k, l.cap1, capsSum(k, l.cap1))
				}
			}
		}
		fire := l.fireFn
		l.fireFn = func() { fire(); check("a completion") }
		join := func(i int) {
			l.TransferAsync(fmt.Sprintf("j%03d", (i*37)%103), int64(1<<20+i*(1<<14)+i), caps[i], func() {})
			check("a join")
		}
		s.Schedule(0, func() {
			for i := 0; i < n; i++ {
				join(i)
			}
		})
		// Two more while the first are in flight: over the brim from
		// below and, once two have left, from above again.
		s.Schedule(time.Millisecond, func() { join(n) })
		s.Schedule(time.Duration(1<<20+3*(1<<14))*time.Second/time.Duration(diffCap), func() { join(n + 1) })
		if err := s.Run(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if l.ActiveFlows() != 0 || l.odd != 0 {
			t.Fatalf("trial %d: drained link holds %d flows, %d odd caps", trial, l.ActiveFlows(), l.odd)
		}
	}
	t.Logf("%d changes left the link steady, %d not, %d within the capacity yet off the caps", single, general, shaved)
	if single < 10*trials || general < 10*trials || shaved == 0 {
		t.Fatalf("%d changes left the link steady, %d not, %d within the capacity yet off the caps: the walk misses a side", single, general, shaved)
	}
}
