package des

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/des/destest"
)

// spawnLoop is the fan-out Proc.Fan replaced, as the callers wrote it
// by hand: a wait group, one Spawn per child named with fmt.Sprintf, an
// error slot per child, and the first error in index order.
func spawnLoop(p *Proc, n int, prefix string, fn func(i int, c *Proc) error) error {
	errs := make([]error, max(n, 0))
	wg := NewWaitGroup(p.Sim())
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		p.Spawn(fmt.Sprintf("%s%d", prefix, i), func(c *Proc) {
			defer wg.Done()
			errs[i] = fn(i, c)
		})
	}
	wg.Wait(p)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

type fanForm func(p *Proc, n int, prefix string, fn func(i int, c *Proc) error) error

// fanChild is one child's script. Scripts are drawn before either form
// runs, so both play the same ones.
type fanChild struct {
	act   int // fanSleep ... fanNest
	d     time.Duration
	bytes int64
	fail  bool
	sub   []fanChild // fanNest: the nested fan's children
}

const (
	fanSleep = iota
	fanPark  // parks until a callback wakes it
	fanHold  // holds a unit of the round's Resource
	fanLink  // Start / Collect on the round's link
	fanNest  // fans out again
	fanActs
)

func drawFanChildren(r *rand.Rand, n, depth int) []fanChild {
	cs := make([]fanChild, n)
	for i := range cs {
		c := &cs[i]
		c.act = r.Intn(fanActs)
		if c.act == fanNest && depth >= 2 {
			c.act = fanSleep
		}
		c.d = time.Duration(r.Intn(5)) * time.Millisecond
		c.bytes = int64(r.Intn(4)) * 1000
		c.fail = r.Intn(6) == 0
		if c.act == fanNest {
			c.sub = drawFanChildren(r, r.Intn(6), depth+1)
		}
	}
	return cs
}

// fanScenario is a seeded run: rounds, each started by a callback at
// its own instant, where a process leading a scope fans out its
// children; some runs stop at a horizon and are resumed.
type fanScenario struct {
	seed    int64
	starts  []time.Duration
	rounds  [][]fanChild
	horizon time.Duration // < 0: none
}

func drawFanScenario(seed int64) fanScenario {
	r := rand.New(rand.NewSource(seed))
	sc := fanScenario{seed: seed, horizon: -1}
	for k := 1 + r.Intn(3); k > 0; k-- {
		sc.starts = append(sc.starts, time.Duration(r.Intn(20))*time.Millisecond)
		sc.rounds = append(sc.rounds, drawFanChildren(r, r.Intn(41), 0))
	}
	if r.Intn(3) == 0 {
		sc.horizon = time.Duration(r.Intn(30)) * time.Millisecond
	}
	return sc
}

// fanOracle holds Proc.Fan to the loop it replaced.
var fanOracle = destest.Pair[fanScenario]{New: fanForm((*Proc).Fan).play, Old: fanForm(spawnLoop).play}

// play is the fan oracle's Form, with form doing every fan-out: each
// process step and callback with the instant and Fired(), each fan's
// error, and after each run its Handoffs(), which must be equal.
func (form fanForm) play(t *testing.T, sc fanScenario, tr *destest.Transcript) destest.Run {
	s := New(sc.seed)
	log := func(who, what string) {
		tr.Logf("%d %d %s %s", int64(s.Now()), s.Fired(), who, what)
	}
	var child func(c *Proc, cs []fanChild, i int, res *Resource, link *Link) error
	fan := func(p *Proc, cs []fanChild, prefix string, res *Resource, link *Link) error {
		return form(p, len(cs), prefix, func(i int, c *Proc) error {
			return child(c, cs, i, res, link)
		})
	}
	child = func(c *Proc, cs []fanChild, i int, res *Resource, link *Link) error {
		script := cs[i]
		log(c.name, fmt.Sprintf("start %d scope=%s", script.act, c.Scope().name))
		switch script.act {
		case fanSleep:
			c.Sleep(script.d)
		case fanPark:
			woken := false
			s.After(script.d, func() {
				log(c.name, "wake")
				woken = true
				c.Wake()
			})
			for !woken {
				c.Park()
			}
		case fanHold:
			res.Acquire(c, 1)
			defer res.Release(1)
			c.Sleep(script.d)
		case fanLink:
			for f := link.Start(c, script.bytes, 2e5); !link.Collect(f); {
				c.Park()
			}
		case fanNest:
			err := fan(c, script.sub, c.name+"/", res, link)
			log(c.name, fmt.Sprintf("nested: %v", err))
			if err != nil {
				return err
			}
		}
		log(c.name, "end")
		if script.fail {
			return errors.New(c.name + " failed")
		}
		return nil
	}
	for k, cs := range sc.rounds {
		k, cs := k, cs
		s.Schedule(sc.starts[k], func() {
			log(fmt.Sprintf("round%d", k), "begin")
			res := NewResource(s, 1+int64(k))
			link := NewLink(s, 1e6)
			s.Spawn(fmt.Sprintf("r%d", k), func(p *Proc) {
				p.LeadScope()
				err := fan(p, cs, fmt.Sprintf("r%d/c", k), res, link)
				log(p.name, fmt.Sprintf("fan: %v", err))
			})
		})
	}
	handoffs := func() { tr.Logf("handoffs=%d", s.Handoffs()) }
	return destest.Run{Kernel: watched{s, t}, Stopped: handoffs, After: handoffs}
}

// watched is a Sim whose runs fail the test rather than hang it.
type watched struct {
	*Sim
	t *testing.T
}

func (w watched) RunUntil(limit time.Duration) error {
	return runWithWatchdog(w.t, func() error { return w.Sim.RunUntil(limit) })
}

// TestFanMatchesSpawnLoop plays 300 seeded scenarios through Proc.Fan
// and through the loop it replaced: 0-40 children a round that sleep,
// park until a callback wakes them, hold a Resource, move bytes over a
// shared link, fan out again and fail at random indexes, some runs
// stopped at a horizon and resumed. Both must fire the same events at
// the same instants and return the same errors.
func TestFanMatchesSpawnLoop(t *testing.T) {
	goroutines := destest.NoLeakedGoroutines(t)
	fanOracle.Sweep(t, 300, 300, 0, func(i int, _ *rand.Rand) (fanScenario, time.Duration) {
		sc := drawFanScenario(int64(i + 1))
		return sc, sc.horizon
	})
	goroutines()
}

// FuzzFan draws a scenario from each fuzzed seed and holds Fan to the
// loop on it, as TestFanMatchesSpawnLoop does on its fixed seeds.
func FuzzFan(f *testing.F) {
	destest.Fuzz(f, fanOracle, func(seed int64) (fanScenario, time.Duration) {
		sc := drawFanScenario(seed)
		return sc, sc.horizon
	}, 1, 40, 300)
}

// TestFanOfNothing: Fan(0, ...) returns nil at once, firing no event
// and parking nothing.
func TestFanOfNothing(t *testing.T) {
	s := New(1)
	s.Spawn("p", func(p *Proc) {
		fired, handoffs, now := s.Fired(), s.Handoffs(), s.Now()
		err := p.Fan(0, "c", func(int, *Proc) error { return errors.New("called") })
		if err != nil {
			t.Errorf("Fan(0) = %v, want nil", err)
		}
		if s.Fired() != fired || s.Handoffs() != handoffs || s.Now() != now || s.Pending() != 0 {
			t.Errorf("Fan(0) moved the kernel: fired %d -> %d, handoffs %d -> %d, now %v -> %v, pending %d",
				fired, s.Fired(), handoffs, s.Handoffs(), now, s.Now(), s.Pending())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}
