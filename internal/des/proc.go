package des

import (
	"errors"
	"math/rand"
	"strconv"
	"time"
)

// errKilled is the sentinel panic value used to unwind a process
// goroutine when the simulation shuts down with the process still
// suspended. It never escapes the process wrapper.
var errKilled = errors.New("des: process killed")

// Proc is a simulated process: a Go function running on a goroutine
// under cooperative scheduling. A Proc must only call its methods from
// its own goroutine; passing a Proc across goroutines is a bug.
//
// A *Proc is never reused: Spawn always returns a fresh one, and a
// handle kept after the process finished stays a harmless stale handle
// (Wake on it is a no-op). Its goroutine may be: a finished process's
// goroutine waits on the Sim's idle list for the next Spawn.
//
// A Spawn allocates the Proc alone: its wake events name it in their
// slots rather than holding a bound method, and a numbered process keeps
// its prefix and number, formatted into its name only when a deadlock or
// panic report reads it.
type Proc struct {
	sim *Sim
	// prefix is the process's name, or with numbered set the part of
	// it before num.
	prefix string
	num    int64
	// chain is what an Await in progress runs at the process's wakes.
	chain func()

	// w is the goroutine this process runs on; w.resume is where the
	// baton is handed to it.
	w *worker
	// wake is the handle of the pending activation event, if any; the
	// zero Event means none.
	wake      Event
	numbered  bool
	suspended bool
	killed    bool
	done      bool
	awaiting  bool // Await has handed the process's wakes to a chain
	// granted tells a process queued on a Resource that the wake it got
	// was the grant.
	granted bool

	prevLive, nextLive *Proc
	// scope is the innermost scope this process is in, open or ended
	// (scope.go).
	scope *Scope
}

// worker is one process goroutine. It runs the process assigned to it,
// then drives the event loop as a finished process does, then waits on
// the idle list for Spawn to assign it another.
type worker struct {
	resume chan struct{}
	// proc is the process to run at the next resume, and body its
	// function; a nil proc tells an idle worker to exit.
	proc *Proc
	body func(p *Proc)
}

// maxIdle bounds the idle list. It has to cover the processes that
// come and go in a steady state (a gateway's jobs, a stage's function
// attempts), not a burst: tens of thousands of goroutines parked for
// reuse cost more to wake and release one by one at the end of a run
// than starting them afresh does.
const maxIdle = 256

// Spawn creates a process that begins executing fn at the current
// virtual time (after already-scheduled events at the same instant).
// It may be called before Run, from any process context, or from a
// scheduled callback. The process runs on an idle goroutine left by a
// finished process when there is one, on a new goroutine otherwise;
// the returned *Proc is new either way.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	return s.start(&Proc{sim: s, prefix: name}, fn)
}

// SpawnNumbered is Spawn for a process named prefix followed by n in
// decimal, a name built only if a deadlock or panic report reads it.
func (s *Sim) SpawnNumbered(prefix string, n int64, fn func(p *Proc)) *Proc {
	return s.start(&Proc{sim: s, prefix: prefix, num: n, numbered: true}, fn)
}

// start puts the new process p on a goroutine and schedules its first
// activation.
func (s *Sim) start(p *Proc, fn func(p *Proc)) *Proc {
	if n := len(s.idle); n > 0 {
		p.w = s.idle[n-1]
		s.idle = s.idle[:n-1]
	} else {
		p.w = &worker{resume: make(chan struct{})}
		go p.w.run(s)
	}
	p.w.proc, p.w.body = p, fn
	if s.liveTail == nil {
		s.liveHead = p
	} else {
		s.liveTail.nextLive, p.prevLive = p, s.liveTail
	}
	s.liveTail = p
	p.suspended = true
	p.wake = s.schedule(s.now, nil, p)
	return p
}

// name is the process's name as reports show it.
func (p *Proc) name() string {
	if !p.numbered {
		return p.prefix
	}
	return p.prefix + strconv.FormatInt(p.num, 10)
}

// run is the body of a process goroutine.
func (w *worker) run(s *Sim) {
	<-w.resume
	for w.proc != nil { // nil: released from the idle list
		p, body := w.proc, w.body
		w.proc, w.body = nil, nil
		if !p.killed { // else discarded before it ever ran
			p.call(body)
		}
		p.done = true
		s.unlink(p)
		if p.killed {
			s.stopped <- struct{}{}
			return
		}
		// Go idle before driving the loop: a callback fired from here
		// may Spawn onto this very goroutine, and if that process is the
		// next one activated it runs right here, with no handoff.
		pooled := len(s.idle) < maxIdle
		if pooled {
			s.idle = append(s.idle, w)
		}
		if next := s.drive(); next == nil || next.w != w {
			s.handoff(next)
			if !pooled {
				return
			}
			<-w.resume
		}
	}
}

// call runs the process body, recording a panic other than the kill
// unwind.
func (p *Proc) call(body func(p *Proc)) {
	defer func() {
		if r := recover(); r != nil && !errors.Is(asErr(r), errKilled) {
			p.sim.recordPanic(p.name(), r)
		}
	}()
	body(p)
}

// unlink takes a finished process off the live list.
func (s *Sim) unlink(p *Proc) {
	if p.prevLive == nil {
		s.liveHead = p.nextLive
	} else {
		p.prevLive.nextLive = p.nextLive
	}
	if p.nextLive == nil {
		s.liveTail = p.prevLive
	} else {
		p.nextLive.prevLive = p.prevLive
	}
	p.prevLive, p.nextLive = nil, nil
}

// handoff passes the baton to next's goroutine, or back to Run's when
// next is nil (the run must stop). The caller blocks or exits next.
func (s *Sim) handoff(next *Proc) {
	s.handoffs++
	if next == nil {
		s.stopped <- struct{}{}
		return
	}
	next.w.resume <- struct{}{}
}

func asErr(v any) error {
	if err, ok := v.(error); ok {
		return err
	}
	return nil
}

// activate is the process's wake event: it marks the process runnable
// and names it as the one the event loop must hand the baton to, or runs
// the chain of an Await in progress; the wake is spent either way, so
// its handle goes first. It never blocks. The done/killed guard is
// defense in depth: killLive cancels a victim's wake event, so an
// activation for a dead process should never fire — but if one ever
// does, it is dropped here, before it can name a process whose
// goroutine is gone or runs someone else.
func (p *Proc) activate() {
	if p.done || p.killed {
		return
	}
	p.wake = Event{}
	if p.awaiting {
		p.chain()
		return
	}
	p.suspended = false
	p.sim.next = p
}

// suspend gives up the baton until the process is activated again: the
// process fires the following events itself, and blocks only if one of
// them activates somebody else first (or stops the run).
func (p *Proc) suspend() {
	p.suspended = true
	s := p.sim
	if next := s.drive(); next != p {
		s.handoff(next)
		<-p.w.resume
	}
	if p.killed {
		panic(errKilled)
	}
}

// Sim returns the owning simulation.
func (p *Proc) Sim() *Sim { return p.sim }

// Now reports the current virtual time.
func (p *Proc) Now() time.Duration { return p.sim.now }

// Rand returns the simulation's deterministic random source.
func (p *Proc) Rand() *rand.Rand { return p.sim.rng }

// Spawn starts a child process in p's scope; p.Sim().Spawn starts one in
// none.
func (p *Proc) Spawn(name string, fn func(p *Proc)) *Proc {
	c := p.sim.Spawn(name, fn)
	c.scope = p.scope
	return c
}

// SpawnNumbered is Spawn for a child named prefix followed by n, as
// Sim.SpawnNumbered names it.
func (p *Proc) SpawnNumbered(prefix string, n int64, fn func(p *Proc)) *Proc {
	c := p.sim.SpawnNumbered(prefix, n, fn)
	c.scope = p.scope
	return c
}

// Sleep suspends the process for d of virtual time. Negative durations
// sleep zero time (the process still yields, so same-instant events
// already on the heap run first).
func (p *Proc) Sleep(d time.Duration) {
	p.WakeAfter(d)
	p.suspend()
}

// WakeAfter arms the process's wake d from now (negative: now) and
// returns: the process resumes then if it is parked, or when it next
// parks, so that WakeAfter followed by Park is Sleep. It is how a chain
// of callbacks working on a process's behalf (a store request) ends: its
// last wait is armed as the process's own wake, and costs no event
// beyond the one Sleep would have. Whoever calls it owns the process's
// wait: a wake already pending is withdrawn in favour of this one, and
// Wake is a no-op until it fires. On a finished process it does nothing.
func (p *Proc) WakeAfter(d time.Duration) {
	if p.done || p.killed {
		return
	}
	if d < 0 {
		d = 0
	}
	p.wake = p.sim.move(p.wake, p.sim.now+d, nil, p)
}

// Await parks the process until fn calls Resume, calling fn at once and
// at every wake the process is given (Wake, WakeAfter) in place of
// running it: a chain of callbacks working for the process waits on its
// wake events, where its activations were, and killLive cancels them.
func (p *Proc) Await(fn func()) {
	p.chain, p.awaiting = fn, true
	if fn(); p.awaiting {
		p.suspend()
	}
	p.chain = nil
}

// Resume ends the Await in progress, from its fn. From a wake, the
// process is the one that event activates (unless it was killed): the
// chain's last event is the process's activation, and no event is added.
func (p *Proc) Resume() {
	if p.suspended && !p.killed {
		p.sim.next = p
	}
	p.awaiting, p.suspended = false, false
}

// Gone reports whether the process has finished or been killed. A
// callback working for a process that is not its wake (a throttle's
// grant to a chain) outlives a kill, which cancels only the wake, and
// must do nothing more in the process's name once it is gone.
func (p *Proc) Gone() bool { return p.done || p.killed }

// Park suspends the process indefinitely; some other party must call
// Wake to resume it. Parking with no one holding a reference that will
// eventually Wake the process deadlocks the simulation (Run reports
// it).
func (p *Proc) Park() {
	p.suspend()
}

// Wake schedules a parked process to resume at the current virtual
// time. Waking a process that is running, already scheduled to wake,
// or finished is a no-op, so callers may wake defensively.
func (p *Proc) Wake() {
	if p.done || !p.suspended || p.wake.pending() {
		return
	}
	p.wake = p.sim.schedule(p.sim.now, nil, p)
}

// WaitGroup synchronizes processes on a counter, like sync.WaitGroup
// but in virtual time. The zero value is an empty wait group, ready to
// use; like sync.WaitGroup it must not be copied after first use.
type WaitGroup struct {
	count   int
	waiters []*Proc
}

// NewWaitGroup returns an empty wait group. The simulation is not
// needed (waiters are woken through their own Procs); the parameter
// stays for the callers that pass it.
func NewWaitGroup(*Sim) *WaitGroup {
	return &WaitGroup{}
}

// Add adjusts the counter by delta. Decrementing the counter to zero
// wakes all waiters; decrementing below zero panics (a counting bug).
func (wg *WaitGroup) Add(delta int) {
	wg.count += delta
	if wg.count < 0 {
		panic("des: negative WaitGroup counter")
	}
	if wg.count == 0 && len(wg.waiters) > 0 {
		for _, w := range wg.waiters {
			w.Wake()
		}
		wg.waiters = wg.waiters[:0]
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Count reports the current counter value.
func (wg *WaitGroup) Count() int { return wg.count }

// Wait parks p until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	for wg.count > 0 {
		wg.waiters = append(wg.waiters, p)
		p.Park()
	}
}

// Fan runs fn(i, c) for every i in [0, n), each in a child process c of
// p named prefix+strconv.Itoa(i), spawned in p's scope and in index
// order, and parks p until every child has returned. It returns the
// error of the lowest index that failed. With n <= 0 it returns nil at
// once, scheduling nothing.
func (p *Proc) Fan(n int, prefix string, fn func(i int, c *Proc) error) error {
	var wg WaitGroup
	var err error
	failed := n // lowest index that failed so far
	for i := 0; i < n; i++ {
		wg.Add(1)
		p.SpawnNumbered(prefix, int64(i), func(c *Proc) {
			defer wg.Done()
			if e := fn(i, c); e != nil && i < failed {
				failed, err = i, e
			}
		})
	}
	wg.Wait(p)
	return err
}
