package des

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/des/destest"
)

// The order tests run one schedule, read from a byte string, through
// the production Sim and through oracleSim (kernel_oracle_test.go) and
// demand the same transcript: every fired event and the instant it
// fired at, and after every run its outcome, Now(), Fired() and
// Pending(). A schedule mixes bursts at one instant, events in the
// past (clamped to now), cancels, moves, processes that sleep, park,
// wake one another and are killed when a run stops, RunUntil horizons
// (some behind the clock), MaxEvents stops, callback panics and
// mass cancels that compact the queues.
//
// The production side runs real processes and moves events with
// Sim.move; the oracle has neither, so its processes are chains of
// callbacks that schedule and cancel the events a process's Spawn,
// Sleep, Wake and kill would, and a move is Cancel then Schedule.

// orderKernel is what a schedule needs of either side. Events and
// processes are named by the index their creation returned.
type orderKernel interface {
	// Now, Fired, Handoffs and RunUntil, which returns what
	// Sim.RunUntil does, processes killed on error.
	destest.Kernel
	Pending() int
	setMaxEvents(n int64)
	schedule(at time.Duration, fn func()) int
	cancel(ev int)
	move(ev int, at time.Duration, fn func())
	// spawn starts a process whose body is step in a loop: step says
	// whether the process then sleeps for d, parks or finishes.
	spawn(name string, step func() (d time.Duration, act procAct)) int
	wake(proc int)
}

type procAct int

const (
	actDone procAct = iota
	actSleep
	actPark
)

// simKernel is the production side.
type simKernel struct {
	s     *Sim
	evs   []Event
	procs []*Proc
}

func (k *simKernel) Now() time.Duration             { return k.s.Now() }
func (k *simKernel) Fired() int64                   { return k.s.Fired() }
func (k *simKernel) Pending() int                   { return k.s.Pending() }
func (k *simKernel) setMaxEvents(n int64)           { k.s.MaxEvents = n }
func (k *simKernel) RunUntil(l time.Duration) error { return k.s.RunUntil(l) }
func (k *simKernel) cancel(ev int)                  { k.evs[ev].Cancel() }
func (k *simKernel) wake(proc int)                  { k.procs[proc].Wake() }

// Handoffs is 0 on both sides: the oracle's processes are callbacks,
// so the two kernels' handoffs are not compared.
func (k *simKernel) Handoffs() int64 { return 0 }

func (k *simKernel) schedule(at time.Duration, fn func()) int {
	k.evs = append(k.evs, k.s.Schedule(at, fn))
	return len(k.evs) - 1
}

func (k *simKernel) move(ev int, at time.Duration, fn func()) {
	k.evs[ev] = k.s.move(k.evs[ev], at, fn)
}

func (k *simKernel) spawn(name string, step func() (time.Duration, procAct)) int {
	k.procs = append(k.procs, k.s.Spawn(name, func(p *Proc) {
		for {
			switch d, act := step(); act {
			case actSleep:
				p.Sleep(d)
			case actPark:
				p.Park()
			default:
				return
			}
		}
	}))
	return len(k.procs) - 1
}

// oracleKernel is the oracle side: oracleSim, and processes as chains
// of callbacks.
type oracleKernel struct {
	s     oracleSim
	evs   []oracleEvent
	procs []*oracleProc
}

// oracleProc is a process as the queue sees it: its pending wake (the
// Spawn activation, a Sleep timer or a Wake), and whether its body is
// running, waiting or over.
type oracleProc struct {
	name       string
	step       func() (time.Duration, procAct)
	wake       oracleEvent
	running    bool
	done       bool
	activateFn func()
}

func (k *oracleKernel) Now() time.Duration   { return k.s.Now() }
func (k *oracleKernel) Fired() int64         { return k.s.Fired() }
func (k *oracleKernel) Pending() int         { return k.s.Pending() }
func (k *oracleKernel) Handoffs() int64      { return 0 }
func (k *oracleKernel) setMaxEvents(n int64) { k.s.MaxEvents = n }
func (k *oracleKernel) cancel(ev int)        { k.evs[ev].Cancel() }

func (k *oracleKernel) schedule(at time.Duration, fn func()) int {
	k.evs = append(k.evs, k.s.Schedule(at, fn))
	return len(k.evs) - 1
}

func (k *oracleKernel) move(ev int, at time.Duration, fn func()) {
	k.evs[ev].Cancel()
	k.evs[ev] = k.s.Schedule(at, fn)
}

func (k *oracleKernel) spawn(name string, step func() (time.Duration, procAct)) int {
	p := &oracleProc{name: name, step: step}
	p.activateFn = func() {
		p.wake = oracleEvent{}
		p.running = true
		d, act := p.step()
		p.running = false
		switch act {
		case actSleep:
			if d < 0 {
				d = 0
			}
			p.wake = k.s.Schedule(k.s.now+d, p.activateFn)
		case actDone:
			p.done = true
		}
	}
	p.wake = k.s.Schedule(k.s.now, p.activateFn)
	k.procs = append(k.procs, p)
	return len(k.procs) - 1
}

// wake is Proc.Wake: a no-op on a process that is running, finished or
// already due to wake.
func (k *oracleKernel) wake(proc int) {
	p := k.procs[proc]
	if p.done || p.running || p.wake.pending() {
		return
	}
	p.wake = k.s.Schedule(k.s.now, p.activateFn)
}

// RunUntil adds to oracleSim's what the process machinery does at a
// stop: a drained queue with processes left is a deadlock, and on any
// error every process left is killed, its wake canceled, in spawn
// order.
func (k *oracleKernel) RunUntil(limit time.Duration) error {
	err := k.s.RunUntil(limit)
	var parked []string
	for _, p := range k.procs {
		if !p.done {
			parked = append(parked, p.name)
		}
	}
	if err == nil && len(parked) > 0 {
		sort.Strings(parked)
		err = &DeadlockError{Parked: parked}
	}
	if err != nil {
		for _, p := range k.procs {
			if !p.done {
				p.wake.Cancel()
				p.wake = oracleEvent{}
				p.done = true
			}
		}
	}
	return err
}

// orderScript reads a schedule from data as it goes: every event and
// process step takes its next actions from the bytes, in firing order,
// so two kernels that fire the same events read the same schedule. An
// exhausted script reads zeros, which do nothing and end processes, so
// every run drains.
type orderScript struct {
	k     orderKernel
	data  []byte
	pos   int
	label int // events created or moved, each a new label
	evs   int // event indices handed out
	procs int
	// budget bounds the events a schedule may create.
	budget int
	tr     *destest.Transcript
}

func (sc *orderScript) read() int {
	if sc.pos >= len(sc.data) {
		return 0
	}
	sc.pos++
	return int(sc.data[sc.pos-1])
}

// delay is an offset from now: often zero (the ring), sometimes in the
// past (clamped to now), otherwise a few nanoseconds to a few
// microseconds, so instants are shared.
func (sc *orderScript) delay() time.Duration {
	switch b := sc.read(); {
	case b < 96:
		return 0
	case b < 112:
		return -time.Duration(b - 95)
	case b < 208:
		return time.Duration(b%4 + 1)
	default:
		return time.Duration(b%16+1) * time.Microsecond
	}
}

// event returns a callback that logs itself and acts.
func (sc *orderScript) event() func() {
	sc.label++
	label := sc.label
	return func() {
		sc.tr.Logf("e%d@%d", label, sc.k.Now())
		for n := sc.read() % 4; n > 0; n-- {
			sc.act(true)
		}
	}
}

func (sc *orderScript) schedule(d time.Duration) {
	if sc.budget > 0 {
		sc.budget--
		sc.k.schedule(sc.k.Now()+d, sc.event())
		sc.evs++
	}
}

// act performs one action read from the script. Only a callback may
// panic: a panicking process would be named in the error, which the
// oracle's processes cannot be.
func (sc *orderScript) act(inCallback bool) {
	switch b := sc.read(); {
	case b == 0:
	case b < 80:
		sc.schedule(sc.delay())
	case b < 100:
		for n := sc.read()%16 + 2; n > 0; n-- {
			sc.schedule(0)
		}
	case b < 140:
		if sc.evs > 0 {
			sc.k.cancel(sc.read() % sc.evs)
		}
	case b < 190:
		if sc.evs > 0 && sc.budget > 0 {
			sc.budget--
			ev, d := sc.read()%sc.evs, sc.delay()
			sc.k.move(ev, sc.k.Now()+d, sc.event())
		}
	case b < 230:
		if sc.procs > 0 {
			sc.k.wake(sc.read() % sc.procs)
		}
	case b < 255:
		sc.spawn()
	case inCallback && sc.read() < 16:
		panic(fmt.Sprintf("scripted panic at %d", sc.k.Now()))
	}
}

func (sc *orderScript) spawn() {
	if sc.procs >= 24 || sc.budget <= 0 {
		return
	}
	sc.budget--
	name := fmt.Sprintf("p%02d", sc.procs)
	sc.procs++
	sc.k.spawn(name, func() (time.Duration, procAct) {
		sc.tr.Logf("%s@%d", name, sc.k.Now())
		for n := sc.read() % 3; n > 0; n-- {
			sc.act(false)
		}
		switch b := sc.read(); {
		case b == 0:
			return 0, actDone
		case b < 64:
			return 0, actPark
		default:
			return sc.delay(), actSleep
		}
	})
}

// prelude plays the schedule up to its last run, which Play makes.
func (sc *orderScript) prelude() {
	for n := sc.read()%8 + 1; n > 0; n-- {
		sc.act(false)
	}
	for seg := 0; seg < 12 && sc.pos < len(sc.data); seg++ {
		limit := time.Duration(-1)
		switch b := sc.read(); {
		case b < 96:
			limit = sc.k.Now() + sc.delay()
		case b < 112:
			// A horizon behind the clock.
			limit = sc.k.Now() - time.Duration(b%3)
		case b < 176:
			sc.k.setMaxEvents(sc.k.Fired() + int64(sc.read()%24))
		case b < 200:
			sc.massCancel()
		}
		for n := sc.read() % 4; n > 0; n-- {
			sc.act(false)
		}
		sc.runUntil(limit)
		sc.k.setMaxEvents(0)
	}
}

// massCancel schedules a flood of events, due now and later, and
// cancels seven in eight: enough dead entries to compact the queues.
func (sc *orderScript) massCancel() {
	first := sc.evs
	for i := 0; i < 160; i++ {
		d := time.Duration(0)
		if i%2 == 1 {
			d = time.Duration(i%7) * time.Nanosecond
		}
		sc.label++
		label := sc.label
		sc.k.schedule(sc.k.Now()+d, func() { sc.tr.Logf("e%d@%d", label, sc.k.Now()) })
		sc.evs++
	}
	for i := first; i < sc.evs; i++ {
		if i%8 != 3 {
			sc.k.cancel(i)
		}
	}
}

func (sc *orderScript) runUntil(limit time.Duration) {
	sc.tr.Run(sc.k, limit)
	sc.tr.Logf("pending=%d", sc.k.Pending())
}

// orderOracle holds the production kernel to oracleSim. A schedule may
// end its runs in a panic or a deadlock, alike on both sides.
var orderOracle = destest.Pair[[]byte]{New: orderForm(true), Old: orderForm(false), Failing: true}

// orderForm plays a schedule through the production kernel or the
// oracle: every fired event and process step with its instant, and
// after every run its outcome, Now(), Fired() and Pending().
func orderForm(production bool) destest.Form[[]byte] {
	return func(t *testing.T, data []byte, tr *destest.Transcript) destest.Run {
		var k orderKernel = &oracleKernel{}
		check := func() {}
		if production {
			leaks, sim := leakCheck(t), &simKernel{s: New(1)}
			k, check = sim, func() { leaks(sim.s) }
		}
		(&orderScript{k: k, data: data, budget: 3000, tr: tr}).prelude()
		return destest.Run{Kernel: k, After: func() {
			tr.Logf("pending=%d", k.Pending())
			check()
		}}
	}
}

// TestKernelOrderMatchesOracle runs seeded random schedules through
// both kernels.
func TestKernelOrderMatchesOracle(t *testing.T) {
	orderOracle.Sweep(t, 300, 60, 36, func(_ int, r *rand.Rand) ([]byte, time.Duration) {
		data := make([]byte, 64+r.Intn(2000))
		r.Read(data)
		return data, -1
	})
}

// FuzzKernelOrder runs any byte string as a schedule through both
// kernels.
func FuzzKernelOrder(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	var corpus [][]byte
	for i := 0; i < 8; i++ {
		data := make([]byte, 16<<i)
		rng.Read(data)
		corpus = append(corpus, data)
	}
	destest.Fuzz(f, orderOracle, func(data []byte) ([]byte, time.Duration) { return data, -1 }, corpus...)
}
